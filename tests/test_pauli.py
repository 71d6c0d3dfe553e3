"""The real Pauli kernel: forms, the compose's bits, and the chain's rules against numpy's matrix products.

A Hermitian 2x2 matrix is its real Pauli form (a0, ax, ay, az). The root,
its derivative, Htilde and h are checked here against references formed
with numpy's ``@`` and ``np.linalg.inv``, on seeded random Hermitian
positive-definite stacks and near the exceptional point, where the metric's
condition number reaches 1e8. The tolerances are relative, in units of the
float64 epsilon: eta^2 = rho and eta X + X eta = rho_dot within 8 eps (the
largest seen is 2.5 eps), and Htilde and h within 8 eps (1 + cond eta),
the reference's own rounding growing with cond eta (the largest seen is
0.75 eps (1 + cond eta)).
"""

import itertools

import numpy as np
import pytest

from dysonflow import (
    DysonSample,
    IntegrationGrid,
    SU2Hamiltonian,
    YangLeeParams,
    dyson_from_metric,
    h1_su2,
    hermitian_counterpart,
    hermitian_sqrt,
    hermitian_sqrt_derivative,
    hermiticity_residual,
    integrate_metric,
    metric_rhs,
    pauli_compose,
    physical_hamiltonian,
    rho_closed,
)
from dysonflow.dyson import dyson_forms, dyson_relation_forms, quasi_hermiticity_form
from dysonflow.metric import metric_rhs_form
from dysonflow.su2 import IDENTITY, PAULIS, _entrywise, pauli_det, pauli_form, pauli_norm, pauli_product, require_hpd

EPS = np.finfo(float).eps
GRID = (0.0, -0.0, 1.5, -1.5, 1e-300, -1e300, 5e-324)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def complex_sum(*coeffs):
    """a0*I + ax*sigma_x + ay*sigma_y + az*sigma_z as complex products and sums, entry by entry."""
    coeffs = [np.asarray(x) for x in coeffs]

    def entry(i, j):
        out = coeffs[0] * IDENTITY[i, j]
        for x, sigma in zip(coeffs[1:], PAULIS):
            out = out + x * sigma[i, j]
        return out

    return _entrywise(np.broadcast_shapes(*(x.shape for x in coeffs)), entry)


def test_pauli_compose_has_the_bits_of_the_complex_sum_on_a_signed_zero_grid():
    tuples = np.array(list(itertools.product(GRID, repeat=4))).T
    assert np.array_equal(bits(pauli_compose(*tuples)), bits(complex_sum(*tuples)))
    for coeffs in tuples.T:
        assert np.array_equal(bits(pauli_compose(*coeffs)), bits(complex_sum(*coeffs))), coeffs
    # a coefficient shared by the stack, and Python floats for one matrix
    shared = [(*tuples[:i], value, *tuples[i + 1:]) for i in range(4) for value in GRID]
    for coeffs in (*shared, (-0.0, tuples[1], 0.0, -0.0), (-0.0, 0.0, -0.0, -0.0)):
        assert np.array_equal(bits(pauli_compose(*coeffs)), bits(complex_sum(*coeffs))), coeffs


def test_pauli_compose_keeps_the_complex_sum_for_non_finite_and_complex_coefficients():
    values = [np.inf, -np.inf, np.nan, 1.5, -0.0]
    tuples = np.array(list(itertools.product(values, repeat=4))).T
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(pauli_compose(*tuples)), bits(complex_sum(*tuples)))
        assert np.array_equal(bits(pauli_compose(1.0, np.inf, 0.0, 2.0)), bits(complex_sum(1.0, np.inf, 0.0, 2.0)))
    finite = np.array(GRID)
    mixed = (0.5 - 0.25j, finite, 1j * finite, -0.0)
    assert np.array_equal(bits(pauli_compose(*mixed)), bits(complex_sum(*mixed)))


def test_pauli_form_inverts_pauli_compose_of_real_coefficients():
    rng = np.random.default_rng(11)
    form = rng.standard_normal((4, 1000))
    assert np.allclose(pauli_form(pauli_compose(*form)), form, rtol=0.0, atol=4 * EPS * np.abs(form).max())
    assert np.array_equal(pauli_form(pauli_compose(1.0, 2.0, 3.0, 4.0)), [1.0, 2.0, 3.0, 4.0])


def test_pauli_product_and_norm_match_the_matrices():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((4, 500)), rng.standard_normal((4, 500))
    re, cross = pauli_product(a, b)
    product = pauli_compose(*re) + 1j * pauli_compose(0.0, *cross)
    assert np.allclose(product, pauli_compose(*a) @ pauli_compose(*b), rtol=0.0, atol=1e-14)
    assert np.allclose(pauli_norm(a), np.linalg.norm(pauli_compose(*a), axis=(1, 2)), rtol=1e-15, atol=0.0)
    assert np.allclose(pauli_det(a), np.linalg.det(pauli_compose(*a)).real, rtol=1e-12, atol=1e-14)


def test_metric_rhs_form_is_the_form_of_metric_rhs():
    rng = np.random.default_rng(13)
    h = SU2Hamiltonian(0.3, 0.7, rng.standard_normal(3), rng.standard_normal(3))
    rho = rng.standard_normal((4, 300))
    assert np.allclose(metric_rhs_form(h, rho), pauli_form(metric_rhs(h, pauli_compose(*rho))), rtol=0.0, atol=1e-14)


def hpd_stack(rng, n, cond_max):
    """n Hermitian positive-definite matrices, condition numbers log-uniform in [1, cond_max], traces over 6 decades."""
    direction = rng.standard_normal((3, n))
    direction /= np.linalg.norm(direction, axis=0)
    cond = 10.0 ** rng.uniform(0.0, np.log10(cond_max), n)
    alpha = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return pauli_compose(alpha, *(alpha * (cond - 1.0) / (cond + 1.0) * direction))


def hermitian_stack(rng, n):
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


def fro(m):
    return np.linalg.norm(m, axis=(-2, -1))


@pytest.mark.parametrize("cond_max", [10.0, 1e4, 1e8])
def test_the_kernels_match_numpy_matrix_products(cond_max):
    rng = np.random.default_rng(int(np.log10(cond_max)))
    n = 5_000
    rho, rho_dot = hpd_stack(rng, n, cond_max), hermitian_stack(rng, n)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    eta = hermitian_sqrt(rho)
    x = hermitian_sqrt_derivative(eta, rho_dot)
    assert np.max(np.linalg.cond(rho)) > cond_max / 10.0
    assert np.all(fro(eta @ eta - rho) <= 8 * EPS * fro(rho))
    assert np.all(fro(eta @ x + x @ eta - rho_dot) <= 8 * EPS * fro(eta) * fro(x))
    inv = np.linalg.inv(eta)
    sample = DysonSample(0.0, eta, x)
    growth = 8 * EPS * (1.0 + np.linalg.cond(eta))
    h_tilde = h + 1j * inv @ x
    assert np.all(fro(physical_hamiltonian(h, sample) - h_tilde) <= growth * (fro(h) + fro(inv) * fro(x)))
    counterpart = eta @ h @ inv + 1j * x @ inv
    scale = fro(eta) * fro(h) * fro(inv) + fro(x) * fro(inv)
    assert np.all(fro(hermitian_counterpart(h, sample) - counterpart) <= growth * scale)
    # the residuals of the chain, in forms, against the same references
    (_, im), forms = dyson_relation_forms(h, *sample.forms)
    reference = fro(np.conj(np.swapaxes(h_tilde, 1, 2)) @ rho - rho @ h_tilde)
    assert np.all(np.abs(quasi_hermiticity_form(forms, pauli_form(rho)) - reference) <= growth * scale * fro(rho))
    assert np.all(np.abs(2.0 * pauli_norm(im) - hermiticity_residual(counterpart)) <= growth * scale)


def test_a_flow_sample_and_its_matrices_give_the_same_relations():
    # the forms dyson_from_metric keeps and the forms of its composed matrices
    # give h and Htilde within rounding of each other
    p = YangLeeParams(gamma=0.6, omega=0.9)
    flow = integrate_metric(h1_su2(p), rho_closed(0.0, p), IntegrationGrid(0.0, 2.0, 1e-2))
    kept = dyson_from_metric(flow)
    matrices = DysonSample(kept.t, kept.eta, kept.eta_dot)
    eta, eta_dot = dyson_forms(h1_su2(p), *require_hpd(flow.series.samples))
    assert np.array_equal(kept.forms[0], eta) and np.array_equal(kept.forms[1], eta_dot)
    assert "forms" in vars(kept[3:7]) and np.array_equal(kept[3:7].forms[0], eta[:, 3:7])
    hm = h1_su2(p).matrix()
    for kernel in (hermitian_counterpart, physical_hamiltonian):
        assert np.max(fro(kernel(hm, kept) - kernel(hm, matrices))) < 1e-14


def test_a_sample_needs_both_matrices_or_their_forms():
    with pytest.raises(TypeError, match="eta and eta_dot, or their forms"):
        DysonSample(0.0, eta=IDENTITY)
    sample = DysonSample(0.0, forms=(pauli_form(IDENTITY), np.zeros(4)))
    assert np.array_equal(sample.eta, IDENTITY) and not np.any(sample.eta_dot)
