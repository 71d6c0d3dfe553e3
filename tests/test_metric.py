"""Metric flow: closed-form family and its stationary members, numeric integration."""

import math

import numpy as np
import pytest

from dysonflow import (
    IDENTITY,
    IntegrationGrid,
    MetricState,
    SU2Hamiltonian,
    YangLeeParams,
    ZetaConstants,
    h1_su2,
    hermiticity_residual,
    integrate_metric,
    integrate_metric_from,
    metric_rhs,
    positivity_margin,
    rho_closed,
    rho_closed_constants,
    zeta_metric,
    zeta_metric_dot,
)
from dysonflow.errors import NotPositiveDefinite, StepTooLarge, UnsupportedHamiltonian

YL = YangLeeParams(gamma=0.5, omega=1.0)
H_YL = h1_su2(YL)


def random_orthogonal_hamiltonian(rng, lambda_fraction=None):
    """Random H with lambda0 = 0 and kappa.lambda = 0, |kappa| > |lambda|."""
    kappa = rng.normal(size=3)
    while np.linalg.norm(kappa) < 0.3:
        kappa = rng.normal(size=3)
    lam = np.cross(kappa, rng.normal(size=3))
    lam /= np.linalg.norm(lam)
    frac = rng.uniform(0.1, 0.9) if lambda_fraction is None else lambda_fraction
    lam *= frac * np.linalg.norm(kappa)
    return SU2Hamiltonian(kappa0=rng.normal(), lambda0=0.0, kappa_vec=kappa, lambda_vec=lam)


# ----------------------------------------------------------------------
# static metrics: the c1 = c2 = 0 members of zeta_metric
# ----------------------------------------------------------------------

def static_constants(h, alpha, nu):
    """The zeta constants of the stationary metric beta = (alpha/|k|^2) l x k + nu k."""
    return ZetaConstants(c1=0.0, c2=0.0, c3=-alpha / float(h.kappa_vec @ h.kappa_vec), c4=nu)


def test_static_metric_yang_lee():
    ts = np.linspace(-4.0, 4.0, 9)
    state = zeta_metric(ts, H_YL, static_constants(H_YL, alpha=1.0, nu=0.0))
    assert np.all(state.alpha == 1.0)
    assert np.allclose(state.beta_vec, [0.0, -0.5, 0.0], atol=1e-15)
    # rho = I - gamma sigma_y kills the flow right side entirely
    assert np.max(np.linalg.norm(metric_rhs(H_YL, state.matrix()), axis=(1, 2))) < 1e-12


def test_static_metric_hermitian_case():
    h = SU2Hamiltonian(kappa0=0.3, lambda0=0.0, kappa_vec=(0, 0, -1), lambda_vec=(0, 0, 0))
    state = zeta_metric(0.7, h, static_constants(h, alpha=1.0, nu=0.0))
    assert np.allclose(state.beta_vec, 0.0, atol=1e-15)
    assert np.allclose(state.matrix(), np.eye(2), atol=1e-15)


def test_static_metric_random_family_is_stationary():
    rng = np.random.default_rng(11)
    ts = np.linspace(-3.0, 3.0, 25)
    for _ in range(25):
        h = random_orthogonal_hamiltonian(rng)
        rho = zeta_metric(ts, h, static_constants(h, alpha=rng.uniform(1.0, 3.0), nu=0.0)).matrix()
        assert np.max(np.linalg.norm(metric_rhs(h, rho), axis=(1, 2))) < 1e-12


def test_static_metric_rejects_unsupported():
    # the stationary (c1 = c2 = 0) members refuse lambda0 != 0, k.l != 0 and kappa = 0
    static = ZetaConstants(0.0, 0.0, -1.0, 0.0)
    with pytest.raises(UnsupportedHamiltonian):
        zeta_metric(0.0, SU2Hamiltonian(0.0, 0.5, (0, 0, -1), (-0.5, 0, 0)), static)
    with pytest.raises(UnsupportedHamiltonian):
        zeta_metric(0.0, SU2Hamiltonian(0.0, 0.0, (0, 0, -1), (0.1, 0, -0.4)), static)
    with pytest.raises(UnsupportedHamiltonian):
        zeta_metric(0.0, SU2Hamiltonian(0.0, 0.0, (0, 0, 0), (0.1, 0, 0)), static)


# ----------------------------------------------------------------------
# zeta_metric
# ----------------------------------------------------------------------

def test_zeta_metric_yang_lee_at_zero():
    state = zeta_metric(0.0, H_YL, rho_closed_constants(YL))
    assert abs(state.alpha - 2.0) < 1e-14
    assert np.allclose(state.beta_vec, [math.sqrt(3) / 2, -1.0, 0.0], atol=1e-14)
    assert abs(positivity_margin(state) - 2.25) < 1e-14


def test_zeta_metric_matches_rho_closed():
    c = rho_closed_constants(YL)
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 101):
        assert np.linalg.norm(zeta_metric(t, H_YL, c).matrix() - rho_closed(t, YL)) < 1e-13


def test_zeta_metric_det_time_independent():
    c = rho_closed_constants(YL)
    for t in np.linspace(-5.0, 5.0, 57):
        assert abs(positivity_margin(zeta_metric(t, H_YL, c)) - 2.25) < 1e-13


def test_zeta_metric_det_formula_yang_lee():
    # det rho = c3^2 - c4^2 - gamma^2 (c1^2 + c2^2 + c3^2) for |kappa| = 1, |lambda| = gamma
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = ZetaConstants(*rng.uniform(-1.5, 1.5, size=4))
        expected = (
            c.c3**2 - c.c4**2 - YL.gamma**2 * (c.c1**2 + c.c2**2 + c.c3**2)
        )
        t = rng.uniform(-4, 4)
        assert abs(positivity_margin(zeta_metric(t, H_YL, c)) - expected) < 1e-12


def test_zeta_reduces_to_static_when_c1_c2_vanish():
    rng = np.random.default_rng(17)
    for _ in range(20):
        h = random_orthogonal_hamiltonian(rng)
        k2 = float(h.kappa_vec @ h.kappa_vec)
        c3, c4 = rng.uniform(-1.0, -0.2), rng.uniform(-0.3, 0.3)
        alpha = -c3 * k2
        beta = (alpha / k2) * np.cross(h.lambda_vec, h.kappa_vec) + c4 * h.kappa_vec
        state = zeta_metric(rng.uniform(-3, 3, size=5), h, ZetaConstants(0.0, 0.0, c3, c4))
        assert np.max(np.abs(state.alpha - alpha)) < 1e-12
        assert np.allclose(state.beta_vec, beta, atol=1e-12)


def test_zeta_metric_rejects_unsupported():
    with pytest.raises(UnsupportedHamiltonian):
        zeta_metric(0.0, SU2Hamiltonian(0, 0.3, (0, 0, -1), (-0.5, 0, 0)), ZetaConstants(0, 0, -1, 0))
    with pytest.raises(UnsupportedHamiltonian):
        zeta_metric(0.0, SU2Hamiltonian(0, 0, (0, 0, -1), (0, 0.2, -0.5)), ZetaConstants(0, 0, -1, 0))
    for lam in (-1.0, -1.5):
        with pytest.raises(UnsupportedHamiltonian):
            # |lambda| >= |kappa| has no real oscillation frequency
            zeta_metric(0.0, SU2Hamiltonian(0, 0, (0, 0, -1), (lam, 0, 0)), ZetaConstants(0, 0, -1, 0))


def test_zeta_closed_form_satisfies_coefficient_flow():
    # fourth-order differences of (z1, z2, z3, alpha) against the first-order system
    rng = np.random.default_rng(2024)
    step = 1e-3
    for _ in range(100):
        h = random_orthogonal_hamiltonian(rng)
        c = ZetaConstants(*rng.uniform(-2.0, 2.0, size=4))
        k, lam = h.kappa_vec, h.lambda_vec
        k2, l2 = float(k @ k), float(lam @ lam)
        cross = np.cross(k, lam)
        cross2 = float(cross @ cross)

        def coeffs(t):
            s = zeta_metric(t, h, c)
            z1 = float(s.beta_vec @ k) / k2
            z2 = float(s.beta_vec @ lam) / l2
            z3 = float(s.beta_vec @ cross) / cross2
            return np.array([z1, z2, z3, s.alpha])

        t = rng.uniform(-3.0, 3.0)
        stencil = [coeffs(t + j * step) for j in (-2, -1, 1, 2)]
        deriv = (stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * step)
        z1, z2, z3, alpha = coeffs(t)
        beta = zeta_metric(t, h, c).beta_vec
        assert abs(deriv[0]) < 1e-9                      # z1' = z3 k.lam = 0
        assert abs(deriv[1] - (-alpha - z3 * k2)) < 1e-9
        assert abs(deriv[2] - z2) < 1e-9
        assert abs(deriv[3] - (-float(beta @ lam))) < 1e-9


def test_zeta_metric_dot_matches_a_richardson_difference_of_zeta_metric():
    # central differences of step d and d/2, extrapolated to O(d^4), on random H and constants
    rng = np.random.default_rng(2026)
    ts = np.linspace(-4.0, 4.0, 201)
    for _ in range(50):
        h = random_orthogonal_hamiltonian(rng)
        c = ZetaConstants(*rng.uniform(-2.0, 2.0, size=4))

        def central(d):
            ahead, behind = zeta_metric(ts + d, h, c), zeta_metric(ts - d, h, c)
            return np.column_stack([ahead.alpha - behind.alpha, ahead.beta_vec - behind.beta_vec]) / (2.0 * d)

        richardson = (4.0 * central(5e-4) - central(1e-3)) / 3.0
        rate = zeta_metric_dot(ts, h, c)
        assert np.max(np.abs(np.column_stack([rate.alpha, rate.beta_vec]) - richardson)) < 1e-9
        # and the coefficient flow alpha' = -beta.l, beta' = k x beta - alpha l, to rounding
        state = zeta_metric(ts, h, c)
        assert np.max(np.abs(rate.alpha + state.beta_vec @ h.lambda_vec)) < 1e-13
        flow = np.cross(h.kappa_vec, state.beta_vec) - state.alpha[:, None] * h.lambda_vec
        assert np.max(np.abs(rate.beta_vec - flow)) < 1e-13


def test_zeta_metric_dot_of_a_stack_is_its_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    h = random_orthogonal_hamiltonian(rng)
    c = ZetaConstants(*rng.uniform(-2.0, 2.0, size=4))
    ts = np.linspace(-5.0, 5.0, 14_501)
    rate = zeta_metric_dot(ts, h, c)
    assert rate.alpha.shape == (14_501,) and rate.beta_vec.shape == (14_501, 3)
    for i in range(0, len(ts), 97):
        single = zeta_metric_dot(ts[i], h, c)
        assert isinstance(single.alpha, float) and single.beta_vec.shape == (3,)
        assert np.asarray(single.alpha).tobytes() == rate.alpha[i].tobytes()
        assert single.beta_vec.tobytes() == np.ascontiguousarray(rate.beta_vec[i]).tobytes()
    # the stationary members have no rate
    still = zeta_metric_dot(ts[:5], h, static_constants(h, alpha=1.2, nu=0.3))
    assert not np.any(still.alpha) and not np.any(still.beta_vec)


# ----------------------------------------------------------------------
# metric_rhs
# ----------------------------------------------------------------------

def test_metric_rhs_trivial_cases():
    h = SU2Hamiltonian(kappa0=1.0, lambda0=0.0, kappa_vec=(0.4, -0.2, 0.9), lambda_vec=(0, 0, 0))
    assert np.linalg.norm(metric_rhs(h, np.eye(2))) < 1e-15
    state = zeta_metric(0.0, H_YL, static_constants(H_YL, alpha=1.2, nu=0.1))
    assert np.linalg.norm(metric_rhs(H_YL, state.matrix())) < 1e-12


def test_metric_rhs_matches_finite_difference_of_closed_form():
    step = 1e-6
    for t in (0.0, 0.7, 2.9):
        fd = (rho_closed(t + step, YL) - rho_closed(t - step, YL)) / (2 * step)
        assert np.linalg.norm(metric_rhs(H_YL, rho_closed(t, YL)) - fd) < 1e-8


def test_metric_rhs_preserves_hermiticity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = random_orthogonal_hamiltonian(rng)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = 0.5 * (m + m.conj().T)
        assert hermiticity_residual(metric_rhs(h, rho)) < 1e-12


# ----------------------------------------------------------------------
# integrate_metric
# ----------------------------------------------------------------------

def test_integrate_constant_for_stationary_start():
    state = zeta_metric(0.0, H_YL, static_constants(H_YL, alpha=1.0, nu=0.0))
    grid = IntegrationGrid(0.0, 2.0, 1e-3)
    flow = integrate_metric(H_YL, state.matrix(), grid)
    dev = np.max(np.linalg.norm(flow.series.samples - state.matrix(), axis=(1, 2)))
    assert dev < 1e-12
    assert flow.positivity_lost_at is None


def test_integrate_matches_closed_form():
    n = round(2 * YL.period / 1e-3)
    grid = IntegrationGrid(0.0, n * 1e-3, 1e-3)
    flow = integrate_metric(H_YL, rho_closed(0.0, YL), grid)
    dev = max(
        np.linalg.norm(flow.series[i] - rho_closed(t, YL))
        for i, t in enumerate(grid.times)
    )
    assert dev < 1e-8


def test_integrate_hermitian_hamiltonian_keeps_identity():
    h = SU2Hamiltonian(kappa0=0.5, lambda0=0.0, kappa_vec=(0.1, 0.4, -1.0), lambda_vec=(0, 0, 0))
    grid = IntegrationGrid(0.0, 1.0, 1e-3)
    flow = integrate_metric(h, np.eye(2), grid)
    assert np.max(np.abs(flow.series.samples - np.eye(2))) < 1e-13


def test_integrate_preserves_hermiticity_and_det():
    grid = IntegrationGrid(0.0, 10.0, 1e-3)  # 10^4 steps
    flow = integrate_metric(H_YL, rho_closed(0.0, YL), grid)
    samples = flow.series.samples
    herm = np.linalg.norm(samples - np.conj(np.swapaxes(samples, 1, 2)), axis=(1, 2))
    assert np.max(herm) < 1e-10
    dets = (samples[:, 0, 0] * samples[:, 1, 1] - samples[:, 0, 1] * samples[:, 1, 0]).real
    assert np.max(np.abs(dets - 2.25)) < 1e-8


def test_integrate_rejects_bad_rho0():
    grid = IntegrationGrid(0.0, 1.0, 1e-3)
    with pytest.raises(NotPositiveDefinite):
        integrate_metric(H_YL, np.diag([1.0, -0.5]), grid)


def test_integrate_flags_positivity_loss_near_degenerate_start():
    # det rho = |det A|^2 det rho0 stays positive in exact arithmetic; with
    # det(rho0) = 2^-52, within rounding of zero, the computed det of the
    # congruence A rho0 A^dag still rounds to zero or below within a few steps
    edge = 1.0 - 2.0**-53
    rho0 = np.array([[1.0, edge], [edge, 1.0]], dtype=complex)
    grid = IntegrationGrid(0.0, 0.5, 1e-3)
    flow = integrate_metric(H_YL, rho0, grid)
    assert flow.positivity_lost_at is not None


def test_integrate_step_too_large():
    grid = IntegrationGrid(0.0, 5.0, 0.5)
    with pytest.raises(StepTooLarge):
        integrate_metric(H_YL, rho_closed(0.0, YL), grid, local_error_bound=1e-12)


def test_integrate_metric_from_continues_the_flow_over_a_second_grid():
    # a0 = I is integrate_metric, bit for bit; a second grid that starts from
    # the first one's last A gives the rest of the one-grid flow, to rounding
    whole = integrate_metric(H_YL, rho_closed(0.0, YL), IntegrationGrid(0.0, 4.0, 1e-3))
    first, a_end = integrate_metric_from(H_YL, rho_closed(0.0, YL), IDENTITY, IntegrationGrid(0.0, 2.0, 1e-3))
    second, _ = integrate_metric_from(H_YL, rho_closed(0.0, YL), a_end, IntegrationGrid(2.0, 4.0, 1e-3))
    assert np.array_equal(first.series.samples, whole.series.samples[:2001])
    assert np.array_equal(second.series.samples[0], first.series.samples[-1])
    assert np.max(np.abs(second.series.samples - whole.series.samples[2000:])) < 1e-14
    assert second.h == H_YL and second.series.t0 == 2.0


def test_integrate_metric_from_checks_the_local_error_of_the_continued_a():
    # the check applies the step's error to A itself, so a grid continued from
    # a large A fails where the same grid started from A = I passes
    grid = IntegrationGrid(0.0, 1.0, 0.05)
    integrate_metric_from(H_YL, rho_closed(0.0, YL), IDENTITY, grid)
    with pytest.raises(StepTooLarge):
        integrate_metric_from(H_YL, rho_closed(0.0, YL), 1e4 * IDENTITY, grid)


# ----------------------------------------------------------------------
# positivity_margin
# ----------------------------------------------------------------------

def test_positivity_margin_values():
    assert abs(positivity_margin(MetricState(2.0, (math.sqrt(3) / 2, -1.0, 0.0))) - 2.25) < 1e-14
    assert positivity_margin(MetricState(1.0, (0.0, 0.0, 1.0))) == 0.0


def test_positivity_margin_of_an_array_state_sums_the_squares_in_order():
    rng = np.random.default_rng(8)
    h = random_orthogonal_hamiltonian(rng)
    c = ZetaConstants(*rng.uniform(-2.0, 2.0, size=4))
    state = zeta_metric(np.linspace(-5.0, 5.0, 14_501), h, c)
    b = state.beta_vec
    margins = positivity_margin(state)
    dot3 = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1] + b[:, 2] * b[:, 2]
    assert margins.tobytes() == (state.alpha**2 - dot3).tobytes()
    singles = [positivity_margin(zeta_metric(t, h, c)) for t in state.t[::97]]
    assert np.array_equal(margins[::97], singles)


def test_metric_state_over_many_times():
    state = MetricState(alpha=np.full(3, 2.0), beta_vec=np.tile([0.5, 0.0, 1.0], (3, 1)), t=np.arange(3.0))
    assert state.matrix().shape == (3, 2, 2)
    assert np.array_equal(state.matrix()[1], MetricState(2.0, (0.5, 0.0, 1.0)).matrix())
    with pytest.raises(ValueError, match="beta_vec must have shape"):
        MetricState(alpha=np.ones(3), beta_vec=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        MetricState(alpha=np.array([1.0, np.nan]), beta_vec=np.zeros((2, 3)))
