"""Pauli-basis kernel: decomposition round trips, products, Hermitian roots."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dysonflow import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IntegrationGrid,
    YangLeeParams,
    dagger,
    det,
    frobenius_norm,
    h1_matrix,
    h1_su2,
    hermitian_sqrt,
    hermiticity_residual,
    integrate_metric,
    mul,
    pauli_compose,
    pauli_decompose,
    rabi_h,
    rho_closed,
    require_hpd,
    rho_inner,
)
from dysonflow.errors import NotHermitian, NotPositiveDefinite
from dysonflow.su2 import complex2x2, complex2x2_stack, pauli_form, require_pd_form


def test_decompose_basis_elements():
    assert np.allclose(pauli_decompose(SIGMA_Z), [0, 0, 0, 1], atol=1e-15)
    assert np.allclose(pauli_decompose(IDENTITY), [1, 0, 0, 0], atol=1e-15)


def test_decompose_h1():
    # H1 = -1/2 (I + sigma_z + i/2 sigma_x) entrywise gives these projections
    c = pauli_decompose(h1_matrix(YangLeeParams(gamma=0.5, omega=1.0)))
    assert np.allclose(c, [-0.5, -0.25j, 0.0, -0.5], atol=1e-15)


def test_compose_identity_and_hand_expansion():
    assert np.allclose(pauli_compose(1, 0, 0, 0), IDENTITY)
    m = pauli_compose(2.0, math.sqrt(3) / 2, -1.0, 0.0)
    expected = np.array(
        [[2.0, math.sqrt(3) / 2 + 1j], [math.sqrt(3) / 2 - 1j, 2.0]], dtype=complex
    )
    assert np.allclose(m, expected, atol=1e-15)


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.linalg.norm(pauli_compose(*pauli_decompose(m)) - m) < 1e-13
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(pauli_decompose(pauli_compose(*c)), c, atol=1e-13)


def test_hermitian_iff_real_coefficients():
    rng = np.random.default_rng(99)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = 0.5 * (m + m.conj().T)
    assert max(abs(x.imag) for x in pauli_decompose(herm)) < 1e-14
    assert hermiticity_residual(pauli_compose(0.3, -1.2, 0.7, 2.1)) < 1e-14


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


def test_hermiticity_residual_has_the_bits_of_the_norm_of_the_difference():
    rng = np.random.default_rng(12)
    shape = (1_000, 2, 2)
    random = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    near = random + dagger(random) + 1e-12 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # (re, im) pairs of +-0.0 in every sign combination, viewed as complex
    signed = np.array([-0.0, 0.0])[rng.integers(0, 2, (64, 2, 2, 2))].view(complex)[..., 0]
    for m in (random, near, signed, random[0], random[:3].reshape(3, 1, 2, 2)):
        expected = frobenius_norm(m - dagger(m))[()]
        assert np.array_equal(bits(hermiticity_residual(m)), bits(expected))
    assert isinstance(hermiticity_residual(random[0]), float)


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
    # one matrix must be 2x2, a stack (..., 2, 2), and every entry finite
    with pytest.raises(ValueError, match="expected a 2x2 matrix, got shape"):
        complex2x2(stack)
    with pytest.raises(ValueError, match="entries must be finite"):
        complex2x2(np.diag([1.0, math.inf]))
    with pytest.raises(ValueError, match="entries must be finite"):
        complex2x2_stack(np.stack([IDENTITY, np.diag([1.0, math.nan])]))


def test_frobenius_norm_of_a_stack_equals_norm_of_each_matrix():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((20_000, 2, 2)) + 1j * rng.standard_normal((20_000, 2, 2))
    stack *= rng.uniform(1e-14, 10.0, (20_000, 1, 1))
    assert np.array_equal(frobenius_norm(stack), [np.linalg.norm(m) for m in stack])
    assert frobenius_norm(stack[0]).shape == ()
    # any other shape is refused, as complex2x2_stack refuses it
    cube = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    for m in (cube, cube[0], np.ones(2)):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            frobenius_norm(m)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        hermiticity_residual(cube[0])


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


def random_complex(rng, shape, spread=0):
    """Gaussian complex entries, each scaled by 10^u with u uniform in [-spread, spread]."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * 10.0 ** rng.uniform(-spread, spread, shape)


@pytest.mark.parametrize(
    "a_shape, b_shape, out_shape",
    [
        ((500, 2, 2), (500, 2, 2), (500, 2, 2)),  # stack x stack
        ((500, 2, 2), (2, 2), (500, 2, 2)),  # stack x matrix
        ((2, 2), (500, 2, 2), (500, 2, 2)),  # matrix x stack
        ((500, 2, 2), (500, 2, 1), (500, 2, 1)),  # stack x column
        ((500, 2, 2), (2, 3), (500, 2, 3)),  # stack x one 2 x 3 matrix
        ((3, 1, 2, 2), (4, 2, 2), (3, 4, 2, 2)),  # leading axes broadcast
        ((2, 2), (2, 2), (2, 2)),  # one matrix
    ],
)
def test_mul_shapes_match_matmul(a_shape, b_shape, out_shape):
    rng = np.random.default_rng(8)
    a, b = random_complex(rng, a_shape), random_complex(rng, b_shape)
    c = mul(a, b)
    assert c.shape == out_shape and c.dtype == complex
    # entry-major: each entry of a stack is one contiguous array, one matrix is C-contiguous
    assert all(c[..., i, j].flags.c_contiguous for i, j in np.ndindex(c.shape[-2:]))
    assert c.ndim > 2 or c.flags.c_contiguous
    assert np.allclose(c, a @ b, rtol=1e-14, atol=1e-14)
    assert np.array_equal(mul(a.real, b.real), mul(a.real + 0j, b.real + 0j).real)


def test_mul_refuses_other_shapes():
    for a, b in [(np.ones((3, 3)), np.ones((3, 3))), (np.ones((2, 2)), np.ones((3, 2))), (np.ones(2), np.ones((2, 2)))]:
        with pytest.raises(ValueError):
            mul(a, b)


def test_mul_and_matmul_stay_within_the_entrywise_error_bound():
    # |c - a b| <= 4 eps (|a| |b|) entry by entry, against an extended-precision product
    rng = np.random.default_rng(17)
    a, b = random_complex(rng, (20_000, 2, 2), 8), random_complex(rng, (20_000, 2, 2), 8)
    exact = a.astype(np.clongdouble) @ b.astype(np.clongdouble)
    bound = 4.0 * np.finfo(float).eps * (np.abs(a).astype(np.longdouble) @ np.abs(b))
    for c in (mul(a, b), np.matmul(a, b)):
        assert np.all(np.abs(c - exact) <= bound)
    assert np.any(mul(a, b) != np.matmul(a, b))  # the two round differently


def test_mul_of_a_stack_is_the_stack_of_single_products_bit_for_bit():
    rng = np.random.default_rng(29)
    a, b, v = (random_complex(rng, s, 3) for s in ((300, 2, 2), (300, 2, 2), (300, 2, 1)))
    bits = lambda m: np.ascontiguousarray(m).view(np.uint64)
    assert np.array_equal(bits(mul(a, b)), bits(np.stack([mul(x, y) for x, y in zip(a, b)])))
    assert np.array_equal(bits(mul(a, b[7])), bits(np.stack([mul(x, b[7]) for x in a])))
    assert np.array_equal(bits(mul(a[7], b)), bits(np.stack([mul(a[7], y) for y in b])))
    assert np.array_equal(bits(mul(a, v)), bits(np.stack([mul(x, y) for x, y in zip(a, v)])))
    assert np.array_equal(bits(mul(a[5:9], b[5:9])), bits(mul(a, b)[5:9]))


@pytest.mark.parametrize("layout", ["entry-major", "C-ordered"])
def test_det_of_a_stack_is_the_stack_of_single_determinants_bit_for_bit(layout):
    # invert_dyson_map divides by det, so its stack equals its single calls by this rule
    rng = np.random.default_rng(31)
    m = random_complex(rng, (14_501, 2, 2), 3)
    if layout == "entry-major":
        m = np.moveaxis(np.ascontiguousarray(np.moveaxis(m, 0, -1)), -1, 0)
        assert m[:, 0, 0].flags.c_contiguous
    single = np.array([det(np.array(x)) for x in m])
    assert np.array_equal(bits(det(m)), bits(single))


def bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def test_require_hpd_keeps_the_bits_of_its_hermitian_part():
    # require_hpd returns the real Pauli form of the Hermitian part of m, with
    # the bits of that form, and sqrt(det) of it, as require_pd_form does on that form
    rng = np.random.default_rng(43)
    a = random_complex(rng, (5_000, 2, 2), 1)
    m = mul(a, dagger(a)) + IDENTITY + 1e-12 * random_complex(rng, (5_000, 2, 2))
    form, s = require_hpd(m)
    part = 0.5 * (m + dagger(m))
    assert np.array_equal(bits(form), bits(pauli_form(part))) and np.array_equal(bits(form), bits(pauli_form(m)))
    assert np.max(frobenius_norm(pauli_compose(*form) - part) / frobenius_norm(part)) < 1e-15
    assert np.allclose(s**2, det(part).real, rtol=1e-13, atol=0.0)
    assert all(np.array_equal(bits(x), bits(y)) for x, y in zip(require_pd_form(pauli_form(m)), (form, s)))


def test_hermitian_sqrt_takes_the_determinant_scaled():
    # alpha^2 = 1e400 overflows, so the determinant was inf - inf = NaN and
    # the root all NaN; scaled by alpha^2 it is 1 and 0, and a NaN fails
    assert np.array_equal(hermitian_sqrt(np.array([[1e200, 0.0], [0.0, 1e200]])), 1e100 * IDENTITY)
    with pytest.raises(NotPositiveDefinite, match="det = 0"):
        hermitian_sqrt(np.array([[1e200, 1e200], [1e200, 1e200]]))
    with pytest.raises(NotPositiveDefinite, match="matrix 1 of the stack"):
        require_hpd(np.stack([1e200 * IDENTITY, np.full((2, 2), 1e200)]))
    with pytest.raises(NotPositiveDefinite, match="matrix 1 of the stack") as err:
        require_pd_form(np.array([[1e200, 1e200], [0.0, 1e200], [0.0, 0.0], [0.0, 0.0]]))
    assert err.value.index == 1


def assert_stack_rounds_as_single_products(a, b):
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a_each = np.broadcast_to(a, lead + a.shape[-2:])
    b_each = np.broadcast_to(b, lead + b.shape[-2:])
    # each single product takes contiguous copies, so it shares no layout with the stack
    single = np.stack([mul(np.array(x), np.array(y)) for x, y in zip(a_each, b_each)])
    assert np.array_equal(bits(mul(a, b)), bits(single))


# 10,000 matrices: more than one block of the former 4,096-matrix copies
STACK_OPERANDS = {
    "contiguous": lambda a, b: (a, b),
    "dagger view": lambda a, b: (dagger(a), b),
    "column slices": lambda a, b: (a, b[:, :, 1, None]),
    "reversed stride": lambda a, b: (a[::-1], b[::-2].repeat(2, axis=0)),
    "broadcast matrix": lambda a, b: (a[7], b),
    "broadcast view": lambda a, b: (a, np.broadcast_to(b[3], b.shape)),
}


@pytest.mark.parametrize("operands", STACK_OPERANDS.values(), ids=STACK_OPERANDS)
def test_mul_of_a_large_strided_stack_is_the_stack_of_single_products(operands):
    rng = np.random.default_rng(41)
    a, b = random_complex(rng, (10_000, 2, 2), 3), random_complex(rng, (10_000, 2, 2), 3)
    assert_stack_rounds_as_single_products(*operands(a, b))


def test_mul_allocates_its_output_and_one_entry_per_matrix():
    n = 14_501
    rng = np.random.default_rng(43)
    a, b = random_complex(rng, (n, 2, 2)), random_complex(rng, (n, 2, 2))
    mul(a[:1], b[:1])
    tracemalloc.start()
    try:
        c = mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one complex temporary of n entries, and a little for views and Python objects
    assert peak <= c.nbytes + n * np.dtype(complex).itemsize + 16_384
