"""State and propagator integration in both pictures, plus metric inner products."""

import warnings

import numpy as np
import pytest

from dysonflow import (
    IDENTITY,
    SIGMA_Z,
    DysonSeries,
    IntegrationGrid,
    YangLeeParams,
    eta_closed,
    evolve_state,
    h1_matrix,
    nonhermitian_u,
    propagator_series,
    psi_pm,
    rabi_h,
    rho_closed,
    rho_inner,
    time_ordered_u,
    u_closed,
)
from dysonflow._integrate import rk4_series, stage_times
from dysonflow.errors import NotPositiveDefinite, SingularDysonMap, StepTooLarge

YL = YangLeeParams(gamma=0.5, omega=1.0)
H1 = h1_matrix(YL)


def snapped_grid(t_start, span, dt):
    return IntegrationGrid(t_start, t_start + round(span / dt) * dt, dt)


def closed_dyson_series(grid):
    etas = np.stack([eta_closed(t, YL).eta for t in grid.times])
    dots = np.stack([eta_closed(t, YL).eta_dot for t in grid.times])
    return DysonSeries(t0=grid.t_start, dt=grid.dt, eta=etas, eta_dot=dots)


def test_stationary_state_picks_up_phase_only():
    grid = IntegrationGrid(0.0, 10.0, 1e-3)
    series = evolve_state(lambda t: -0.5 * SIGMA_Z, np.array([1.0, 0.0]), grid)
    for i in (1000, 5000, 10000):
        t = grid.times[i]
        expected = np.array([np.exp(0.5j * t), 0.0])
        assert np.linalg.norm(series[i] - expected) < 1e-9


def test_norm_drift_stays_tiny_over_many_steps():
    grid = IntegrationGrid(0.0, 10.0, 1e-3)  # 10^4 steps
    psi0 = np.array([0.6, 0.8j])
    series = evolve_state(lambda t: rabi_h(t, YL), psi0, grid)
    norms = np.linalg.norm(series.samples, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_evolved_eigenstate_matches_closed_form():
    span = round(YL.period / 1e-3) * 1e-3
    grid = IntegrationGrid(YL.t0, YL.t0 + span, 1e-3)
    psi0 = eta_closed(YL.t0, YL).eta @ psi_pm(YL.t0, +1, YL)
    series = evolve_state(lambda t: rabi_h(t, YL), psi0, grid)
    dev = max(
        np.linalg.norm(series[i] - eta_closed(t, YL).eta @ psi_pm(t, +1, YL))
        for i, t in enumerate(grid.times)
    )
    assert dev < 1e-7


def test_evolve_warns_once_for_nonhermitian_source():
    grid = IntegrationGrid(0.0, 0.1, 1e-2)
    with pytest.warns(UserWarning, match="not Hermitian"):
        evolve_state(lambda t: H1, np.array([1.0, 0.0]), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_state(lambda t: H1, np.array([1.0, 0.0]), grid, hermitian_check=False)


def test_time_ordered_u_identity_and_divisibility():
    u = time_ordered_u(lambda t: rabi_h(t, YL), 0.7, 0.7, 1e-3)
    assert np.array_equal(u, IDENTITY)
    with pytest.raises(ValueError):
        time_ordered_u(lambda t: rabi_h(t, YL), 0.0, 1.0005, 1e-2)
    with pytest.raises(ValueError):
        time_ordered_u(lambda t: rabi_h(t, YL), 1.0, 0.0, 1e-2)


def test_time_ordered_u_composition():
    h_of_t = lambda t: rabi_h(t, YL)
    t0, t1, t2 = YL.t0, YL.t0 + 1.0, YL.t0 + 2.5
    u10 = time_ordered_u(h_of_t, t0, t1, 1e-3)
    u21 = time_ordered_u(h_of_t, t1, t2, 1e-3)
    u20 = time_ordered_u(h_of_t, t0, t2, 1e-3)
    assert np.linalg.norm(u21 @ u10 - u20) < 1e-8


def test_time_ordered_u_matches_closed_form():
    h_of_t = lambda t: rabi_h(t, YL)
    for t in (YL.t0 + 0.5, YL.t0 + 2.0, YL.t0 + 0.5 * YL.period):
        span = t - YL.t0
        n = round(span / 1e-3)
        u = time_ordered_u(h_of_t, YL.t0, YL.t0 + n * 1e-3, 1e-3)
        ref = u_closed(YL.t0 + n * 1e-3, YL)
        assert np.linalg.norm(u - ref) < 1e-7
        assert np.linalg.norm(u.conj().T @ u - IDENTITY) < 1e-9


def test_time_ordered_u_step_too_large_guard():
    with pytest.raises(StepTooLarge):
        time_ordered_u(lambda t: rabi_h(t, YL), 0.0, 5.0, 0.5, local_error_bound=1e-12)


def test_richardson_fourth_order_convergence():
    # base step chosen so the span is an exact multiple at every refinement
    base = YL.period / 180.0
    target = YL.t0 + YL.period
    errors = []
    for k in (1, 2, 4):
        dt = base / k
        u = time_ordered_u(lambda t: rabi_h(t, YL), YL.t0, target, dt, local_error_bound=None)
        errors.append(np.linalg.norm(u - u_closed(target, YL)))
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0


def test_nonhermitian_u_reduces_to_u_for_identity_map():
    grid = snapped_grid(0.0, 1.0, 1e-2)
    eye = np.stack([IDENTITY] * (grid.n_steps + 1))
    zero = np.zeros_like(eye)
    series = DysonSeries(t0=0.0, dt=1e-2, eta=eye, eta_dot=zero)
    u = time_ordered_u(lambda t: rabi_h(t, YL), 0.0, 1.0, 1e-2)
    assert np.allclose(nonhermitian_u(series, u, 0.0, 1.0), u, atol=1e-14)


def test_nonhermitian_u_preserves_metric_inner_product():
    span = round(YL.period / 1e-3) * 1e-3
    grid = IntegrationGrid(YL.t0, YL.t0 + span, 1e-3)
    dyson = closed_dyson_series(grid)
    h_of_t = lambda t: rabi_h(t, YL)
    psi0_plus = psi_pm(grid.t_start, +1, YL)
    psi0_minus = psi_pm(grid.t_start, -1, YL)
    base_cross = rho_inner(psi0_minus, psi0_plus, rho_closed(grid.t_start, YL))
    for t in (grid.t_start + 1.0, grid.t_start + 3.0, grid.t_end):
        n = round((t - grid.t_start) / 1e-3)
        t_snap = grid.t_start + n * 1e-3
        u = time_ordered_u(h_of_t, grid.t_start, t_snap, 1e-3)
        u_big = nonhermitian_u(dyson, u, grid.t_start, t_snap)
        rho_t = rho_closed(t_snap, YL)
        moved_plus = u_big @ psi0_plus
        moved_minus = u_big @ psi0_minus
        assert abs(rho_inner(moved_plus, moved_plus, rho_t) - 1.0) < 1e-8
        assert abs(rho_inner(moved_minus, moved_plus, rho_t) - base_cross) < 1e-8
        # demonstrably non-unitary in the flat inner product, except at full
        # periods where eta returns to eta(t0) and U becomes unitary again
        flat = np.linalg.norm(u_big.conj().T @ u_big - IDENTITY)
        if t < grid.t_end:
            assert flat > 1e-2
        else:
            assert flat < 1e-3


def test_nonhermitian_u_regression_magnitude():
    # pilot value at t = t0 + 2.8138 (one unit past zero): ||U^dag U - I|| ~ 1.93
    grid = snapped_grid(YL.t0, 2.0 * YL.period, 1e-3)
    dyson = closed_dyson_series(grid)
    t = grid.t_start + round((1.0 - YL.t0) / 1e-3) * 1e-3
    u = time_ordered_u(lambda s: rabi_h(s, YL), grid.t_start, t, 1e-3)
    u_big = nonhermitian_u(dyson, u, grid.t_start, t)
    assert np.linalg.norm(u_big.conj().T @ u_big - IDENTITY) > 1.8


def test_nonhermitian_u_singular_map_guard():
    grid = snapped_grid(0.0, 0.1, 1e-2)
    singular = np.stack([np.ones((2, 2), dtype=complex)] * (grid.n_steps + 1))
    series = DysonSeries(t0=0.0, dt=1e-2, eta=singular, eta_dot=np.zeros_like(singular))
    with pytest.raises(SingularDysonMap):
        nonhermitian_u(series, IDENTITY, 0.0, 0.1)


def test_picture_equivalence_under_numeric_evolution():
    # eta(t) (numeric Psi(t)) == numeric phi(t) from phi(0) = eta(0) Psi(0)
    span = round(YL.period / 1e-3) * 1e-3
    grid = IntegrationGrid(YL.t0, YL.t0 + span, 1e-3)
    psi0 = 0.3 * psi_pm(grid.t_start, +1, YL) + 0.7j * psi_pm(grid.t_start, -1, YL)
    psi_series = evolve_state(lambda t: H1, psi0, grid, hermitian_check=False)
    phi0 = eta_closed(grid.t_start, YL).eta @ psi0
    phi_series = evolve_state(lambda t: rabi_h(t, YL), phi0, grid)
    dev = max(
        np.linalg.norm(eta_closed(t, YL).eta @ psi_series[i] - phi_series[i])
        for i, t in enumerate(grid.times)
    )
    assert dev < 1e-7


def test_metric_norm_conserved_for_nonhermitian_evolution():
    # both the state and the metric come from the integrators here
    from dysonflow import h1_su2, integrate_metric

    span = round(YL.period / 1e-3) * 1e-3
    grid = IntegrationGrid(YL.t0, YL.t0 + span, 1e-3)
    flow = integrate_metric(h1_su2(YL), rho_closed(grid.t_start, YL), grid)
    psi0 = psi_pm(grid.t_start, +1, YL)
    series = evolve_state(lambda t: H1, psi0, grid, hermitian_check=False)
    start = rho_inner(psi0, psi0, flow.series[0])
    drift = max(
        abs(rho_inner(series[i], series[i], flow.series[i]) - start)
        for i in range(0, len(grid.times), max(1, len(grid.times) // 100))
    )
    assert drift < 1e-7


def test_rho_inner_basics():
    a = np.array([1.0, 2.0j])
    b = np.array([0.5, -1.0])
    assert abs(rho_inner(a, b, IDENTITY) - (a.conj() @ b)) < 1e-15
    rho = rho_closed(0.7, YL)
    left = rho_inner(a, b, rho)
    right = rho_inner(b, a, rho)
    assert abs(left - np.conj(right)) < 1e-14
    self_product = rho_inner(a, a, rho)
    assert abs(self_product.imag) < 1e-14
    assert self_product.real > 0.0
    with pytest.raises(NotPositiveDefinite):
        rho_inner(a, b, np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        rho_inner(a, b, np.array([[1.0, 0.2], [0.4, 1.0]], dtype=complex))


def test_stage_times_cover_every_rk4_evaluation():
    for bound, every in ((1e-6, 3), (None, 3), (1e-6, 0)):
        times = stage_times(0.25, 0.1, 10, bound, every)
        seen = []

        def f(t, y):
            row = int(np.argmin(np.abs(times - t)))
            assert abs(times[row] - t) < 1e-12
            seen.append(row)
            return 0.0 * y

        rk4_series(f, np.zeros(1), 0.25, 0.1, 10, local_error_bound=bound, check_every=every)
        checked = 4 if bound is not None and every else 0  # steps 0, 3, 6, 9
        assert len(times) == 21 + 2 * checked
        assert sorted(set(seen)) == list(range(len(times)))


def test_source_called_once_with_all_stage_times():
    calls = []

    def source(t):
        calls.append(np.array(t))
        return rabi_h(t, YL)

    grid = IntegrationGrid(0.0, 1.0, 1e-2)
    propagator_series(source, grid)
    evolve_state(source, np.array([1.0, 0.0]), grid)
    time_ordered_u(source, 0.0, 1.0, 1e-2)
    # a zero span is the identity without integrating, so it calls no source
    assert np.array_equal(time_ordered_u(source, 0.5, 0.5, 1e-2), IDENTITY)
    assert len(calls) == 3
    expected = stage_times(0.0, 1e-2, 100)
    for t in calls:
        assert np.array_equal(t, expected)


def test_source_shape_is_checked():
    grid = IntegrationGrid(0.0, 0.1, 1e-2)
    with pytest.raises(ValueError, match="h_of_t must return"):
        propagator_series(lambda t: np.stack([IDENTITY] * 3), grid)


def test_nonhermitian_warning_names_first_bad_time():
    grid = IntegrationGrid(0.0, 1.0, 1e-2)

    def source(t):
        return np.where((t >= 0.5)[:, None, None], H1, rabi_h(t, YL))

    with pytest.warns(UserWarning, match="not Hermitian at t = 0.5 "):
        propagator_series(source, grid)
