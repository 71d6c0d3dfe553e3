"""Pauli-basis kernel: decomposition round trips, eigensystems, Hermitian roots."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dysonflow import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IntegrationGrid,
    PauliCoefficients,
    YangLeeParams,
    eigensystem,
    frobenius_norm,
    h1_matrix,
    h1_su2,
    hermitian_sqrt,
    hermiticity_residual,
    integrate_metric,
    pauli_compose,
    pauli_decompose,
    rabi_h,
    rho_closed,
    rho_inner,
)
from dysonflow.errors import NonDiagonalizable, NotHermitian, NotPositiveDefinite


def test_decompose_basis_elements():
    c = pauli_decompose(SIGMA_Z)
    assert np.allclose([c.a0, c.ax, c.ay, c.az], [0, 0, 0, 1], atol=1e-15)
    c = pauli_decompose(IDENTITY)
    assert np.allclose([c.a0, c.ax, c.ay, c.az], [1, 0, 0, 0], atol=1e-15)


def test_decompose_h1():
    # H1 = -1/2 (I + sigma_z + i/2 sigma_x) entrywise gives these projections
    c = pauli_decompose(h1_matrix(YangLeeParams(gamma=0.5, omega=1.0)))
    assert np.allclose([c.a0, c.ax, c.ay, c.az], [-0.5, -0.25j, 0.0, -0.5], atol=1e-15)


def test_compose_identity_and_hand_expansion():
    assert np.allclose(pauli_compose(PauliCoefficients(1, 0, 0, 0)), IDENTITY)
    m = pauli_compose(PauliCoefficients(2.0, math.sqrt(3) / 2, -1.0, 0.0))
    expected = np.array(
        [[2.0, math.sqrt(3) / 2 + 1j], [math.sqrt(3) / 2 - 1j, 2.0]], dtype=complex
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.linalg.norm(pauli_compose(pauli_decompose(m)) - m) < 1e-13
        c = PauliCoefficients(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        back = pauli_decompose(pauli_compose(c))
        assert np.allclose(
            [back.a0, back.ax, back.ay, back.az], [c.a0, c.ax, c.ay, c.az], atol=1e-13
        )


def test_hermitian_iff_real_coefficients():
    rng = np.random.default_rng(99)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = 0.5 * (m + m.conj().T)
    c = pauli_decompose(herm)
    assert max(abs(x.imag) for x in (c.a0, c.ax, c.ay, c.az)) < 1e-14
    real_c = PauliCoefficients(0.3, -1.2, 0.7, 2.1)
    assert hermiticity_residual(pauli_compose(real_c)) < 1e-14


def test_eigensystem_sigma_z_sorted():
    es = eigensystem(SIGMA_Z)
    assert np.allclose(es.values, [-1.0, 1.0], atol=1e-15)
    assert np.allclose(np.abs(es.vectors[:, 0]), [0.0, 1.0], atol=1e-15)


def test_eigensystem_h1():
    p = YangLeeParams(gamma=0.5, omega=1.0)
    m = h1_matrix(p)
    es = eigensystem(m)
    # E_pm = (-omega +- sqrt(1 - gamma^2)) / 2, ascending
    phi = math.sqrt(1.0 - 0.5**2)
    assert np.allclose(es.values, [(-1.0 - phi) / 2, (-1.0 + phi) / 2], atol=1e-12)
    for k in range(2):
        residual = np.linalg.norm(m @ es.vectors[:, k] - es.values[k] * es.vectors[:, k])
        assert residual <= 1e-12 * np.linalg.norm(m)


def test_eigensystem_exceptional_point_raises():
    # at gamma = 1 the two eigenvectors coalesce
    m = -0.5 * (IDENTITY + SIGMA_Z + 1j * SIGMA_X)
    with pytest.raises(NonDiagonalizable):
        eigensystem(m)


def test_eigensystem_deterministic():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = eigensystem(m)
    b = eigensystem(m)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigensystem_hermitian_input():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = 0.5 * (m + m.conj().T)
        es = eigensystem(m)
        assert np.max(np.abs(es.values.imag)) <= 1e-12
        gram = es.vectors.conj().T @ es.vectors
        assert np.linalg.norm(gram - IDENTITY) < 1e-10


def test_hermitian_sqrt_scalar_shortcut():
    assert np.allclose(hermitian_sqrt(4.0 * IDENTITY), 2.0 * IDENTITY, atol=1e-15)


def test_hermitian_sqrt_matches_closed_form_root():
    # rho(0) at gamma = 1/2 is [[2, sqrt(3)/2 + i], [sqrt(3)/2 - i, 2]] and its
    # root has Pauli coefficients built from p_pm(0) = sqrt(2 +- sqrt(7)/2)
    p = YangLeeParams(gamma=0.5, omega=1.0)
    rho0 = rho_closed(0.0, p)
    root = hermitian_sqrt(rho0)
    p_plus = math.sqrt(2.0 + math.sqrt(7.0) / 2.0)
    p_minus = math.sqrt(2.0 - math.sqrt(7.0) / 2.0)
    assert abs(p_plus - 1.8228756555322954) < 1e-12
    assert abs(p_minus - 0.8228756555322952) < 1e-12
    scale = (p_plus - p_minus) / math.sqrt(7.0)  # (p+ - p-) / (2 |p0(0)|)
    expected = (
        0.5 * (p_plus + p_minus) * IDENTITY
        + scale * (math.sqrt(3.0) / 2.0) * SIGMA_X
        - scale * 1.0 * SIGMA_Y
    )
    assert np.linalg.norm(root - expected) < 1e-12
    assert np.linalg.norm(root @ root - rho0) < 1e-12


def test_hermitian_sqrt_guards():
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(np.diag([-1.0, -2.0]))
    with pytest.raises(NotHermitian):
        hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_hermitian_sqrt_roundtrip_random():
    rng = np.random.default_rng(4321)
    for _ in range(200):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        w = rng.uniform(0.1, 10.0, size=2)
        s = (q * np.sqrt(w)) @ q.conj().T
        s = 0.5 * (s + s.conj().T)
        m = s @ s
        assert np.linalg.norm(hermitian_sqrt(m) - s) < 1e-10


def test_hermiticity_residual_values():
    assert hermiticity_residual(SIGMA_Y) == 0.0
    assert abs(hermiticity_residual(1j * SIGMA_X) - 2.0 * math.sqrt(2.0)) < 1e-14
    p = YangLeeParams(gamma=0.5, omega=1.0)
    for t in np.linspace(p.t0, p.t0 + 2 * p.period, 37):
        assert hermiticity_residual(rabi_h(t, p)) < 1e-15


def eigh_sqrt(m):
    """Reference root of an HPD stack by diagonalization."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def decimal_sqrt(m):
    """The closed-form root of one Hermitian 2x2 matrix evaluated with 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, d = Decimal(m[0, 0].real), Decimal(m[1, 1].real)
        br, bi = Decimal(m[0, 1].real), Decimal(m[0, 1].imag)
        s = (a * d - br * br - bi * bi).sqrt()
        c = (a + d + 2 * s).sqrt()
        off = complex(float(br / c), float(bi / c))
        return np.array([[float((a + s) / c), off], [off.conjugate(), float((d + s) / c)]])


def relative_error(root, ref):
    return np.linalg.norm(root - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))


def yang_lee_metrics(gamma, n=401):
    p = YangLeeParams(gamma=gamma, omega=1.0)
    return np.stack([rho_closed(t, p) for t in np.linspace(p.t0, p.t0 + p.period, n)])


def test_hermitian_sqrt_stack_matches_eigh():
    rng = np.random.default_rng(2024)
    z = rng.normal(size=(40, 25, 2, 2)) + 1j * rng.normal(size=(40, 25, 2, 2))
    q, _ = np.linalg.qr(z)
    w = rng.uniform(0.1, 10.0, size=(40, 25, 1, 2))
    m = (q * w) @ np.conj(np.swapaxes(q, -1, -2))
    m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    root = hermitian_sqrt(m)
    assert root.shape == m.shape
    assert np.max(relative_error(root, eigh_sqrt(m))) < 1e-14
    for gamma in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9):
        rho = yang_lee_metrics(gamma)
        assert np.max(relative_error(hermitian_sqrt(rho), eigh_sqrt(rho))) < 1e-14


def test_hermitian_sqrt_near_exceptional_point():
    # det rho = phi^4 / gamma^2 -> 0 as gamma -> 1, so the root's condition grows
    # and eigh itself drifts from the exact root (2e-13 at gamma = 0.999); the
    # closed form stays closer to a 40-digit evaluation than eigh does
    for gamma in (0.99, 0.999):
        rho = yang_lee_metrics(gamma, n=101)
        exact = np.stack([decimal_sqrt(m) for m in rho])
        closed = np.max(relative_error(hermitian_sqrt(rho), exact))
        assert closed < 1e-13
        assert closed <= np.max(relative_error(eigh_sqrt(rho), exact))


def test_hermitian_sqrt_stack_names_first_invalid_index():
    rho = rho_closed(0.0, YangLeeParams(gamma=0.5, omega=1.0))
    stack = np.stack([rho] * 6)
    stack[3] = np.diag([1.0, -1.0])
    stack[5] = np.diag([-1.0, -2.0])
    with pytest.raises(NotPositiveDefinite, match="matrix 3 of the stack") as err:
        hermitian_sqrt(stack)
    assert err.value.index == 3
    stack[1] = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian, match="matrix 1 of the stack") as err:
        hermitian_sqrt(stack)
    assert err.value.index == 1
    with pytest.raises(NotPositiveDefinite) as err:
        hermitian_sqrt(stack[2:].reshape(2, 2, 2, 2))
    assert err.value.index == (0, 1)
    with pytest.raises(NotPositiveDefinite) as err:
        hermitian_sqrt(stack[3])
    assert err.value.index is None
    with pytest.raises(ValueError):
        hermitian_sqrt(np.ones((3, 2)))


def test_frobenius_norm_of_a_stack_equals_norm_of_each_matrix():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((20_000, 2, 2)) + 1j * rng.standard_normal((20_000, 2, 2))
    stack *= rng.uniform(1e-14, 10.0, (20_000, 1, 1))
    assert np.array_equal(frobenius_norm(stack), [np.linalg.norm(m) for m in stack])
    assert frobenius_norm(stack[0]).shape == ()


@pytest.mark.parametrize(
    "rho, error",
    [(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), NotHermitian), (-IDENTITY, NotPositiveDefinite)],
    ids=["non-hermitian", "negative-definite"],
)
def test_hpd_guards_keep_their_exception_types(rho, error):
    # hermitian_sqrt and integrate_metric name the property that failed;
    # rho_inner raises NotPositiveDefinite for either
    h = h1_su2(YangLeeParams(gamma=0.5, omega=1.0))
    psi = np.array([1.0, 0.5j])
    with pytest.raises(error):
        hermitian_sqrt(rho)
    with pytest.raises(error):
        integrate_metric(h, rho, IntegrationGrid(0.0, 0.1, 1e-2))
    with pytest.raises(NotPositiveDefinite):
        rho_inner(psi, psi, rho)
