"""Dyson maps, the Dyson relation, and the quasi-Hermitian energy observable."""

import numpy as np
import pytest

from dysonflow import (
    DysonSample,
    IDENTITY,
    IntegrationGrid,
    PAULIS,
    SIGMA_Z,
    SU2Hamiltonian,
    TimeSeries,
    YangLeeParams,
    ZetaConstants,
    dyson_from_metric,
    eta_closed,
    fourth_order_derivative,
    h1_matrix,
    h1_su2,
    hermitian_counterpart,
    hermitian_sqrt,
    hermitian_sqrt_derivative,
    hermiticity_residual,
    integrate_metric,
    invert_dyson_map,
    metric_rhs,
    physical_hamiltonian,
    quasi_hermiticity_residual,
    rabi_h,
    rho_closed,
    zeta_metric,
)
from dysonflow import dyson
from dysonflow.errors import NotPositiveDefinite, SingularDysonMap

YL = YangLeeParams(gamma=0.5, omega=1.0)
H1 = h1_matrix(YL)


def closed_metric_series(t0, dt, n):
    samples = np.stack([rho_closed(t0 + i * dt, YL) for i in range(n)])
    return TimeSeries(t0=t0, dt=dt, samples=samples)


def test_constant_metric_gives_constant_map():
    rho = rho_closed(0.4, YL)
    series = TimeSeries(t0=0.0, dt=0.1, samples=np.stack([rho] * 9))
    dys = dyson_from_metric(series)
    root = hermitian_sqrt(rho)
    assert np.max(np.linalg.norm(dys.eta - root, axis=(1, 2))) < 1e-13
    assert np.max(np.linalg.norm(dys.eta_dot, axis=(1, 2))) < 1e-12


def test_dyson_series_matches_closed_form(dyson_fd_window, params, window_grid):
    max_eta = 0.0
    max_dot = 0.0
    for i, t in enumerate(window_grid.times):
        ref = eta_closed(t, params)
        max_eta = max(max_eta, np.linalg.norm(dyson_fd_window.eta[i] - ref.eta))
        max_dot = max(max_dot, np.linalg.norm(dyson_fd_window.eta_dot[i] - ref.eta_dot))
    assert max_eta < 1e-9
    assert max_dot < 1e-9


def test_dyson_rejects_invalid_sample():
    rho = rho_closed(0.0, YL)
    bad = np.stack([rho, rho, np.diag([1.0, -1.0]).astype(complex), rho, rho])
    series = TimeSeries(t0=1.0, dt=0.5, samples=bad)
    with pytest.raises(NotPositiveDefinite) as err:
        dyson_from_metric(series)
    assert err.value.t == 2.0
    with pytest.raises(TypeError, match="expected a TimeSeries or MetricFlow"):
        dyson_from_metric(bad)
    with pytest.raises(ValueError, match="expected \\(n, 2, 2\\) metric samples"):
        dyson_from_metric(TimeSeries(t0=1.0, dt=0.5, samples=bad[:, 0]))


def test_indexing_a_sample_over_many_times_gives_the_sample_at_one():
    p = YangLeeParams(gamma=0.63, omega=0.9)
    ts = p.t0 + 1e-3 * np.arange(50)
    dys = dyson_from_metric(TimeSeries(t0=ts[0], dt=1e-3, samples=rho_closed(ts, p)))
    h1 = h1_matrix(p)
    assert np.array_equal(dys.t, ts)
    whole = hermitian_counterpart(h1, dys)
    for i in (0, 7, 49, -1, -50):
        one = dys[i]
        assert one.t == ts[i]
        assert np.array_equal(one.eta, dys.eta[i]) and np.array_equal(one.eta_dot, dys.eta_dot[i])
        assert np.array_equal(hermitian_counterpart(h1, one), whole[i])
    with pytest.raises(IndexError):
        dys[50]


def test_dyson_needs_five_samples():
    rho = rho_closed(0.0, YL)
    with pytest.raises(ValueError):
        dyson_from_metric(TimeSeries(t0=0.0, dt=0.1, samples=np.stack([rho] * 4)))


def test_flow_eta_dot_matches_the_closed_form(metric_flow_window, params, window_grid):
    # eta_dot solves eta X + X eta = rho' with the flow's own rho' at each
    # sample: 4.2e-14 here, where a fourth-order difference of the same
    # samples misses by 1.0e-12
    dys = dyson_from_metric(metric_flow_window)
    ref = eta_closed(window_grid.times, params).eta_dot
    assert np.max(np.linalg.norm(dys.eta_dot - ref, axis=(1, 2))) < 1e-13


def test_a_flow_of_one_step_gives_both_samples_their_eta_dot():
    # no stencil, so no minimum sample count
    grid = IntegrationGrid(YL.t0, YL.t0 + 0.02, 0.02)
    dys = dyson_from_metric(integrate_metric(h1_su2(YL), rho_closed(grid.t_start, YL), grid))
    ref = eta_closed(grid.times, YL).eta_dot
    assert dys.eta_dot.shape == (2, 2, 2)
    assert np.max(np.linalg.norm(dys.eta_dot - ref, axis=(1, 2))) < 1e-9


def test_fourth_order_derivative_on_smooth_function():
    # halving the step shrinks the worst-case error about 16x
    errors = []
    for dt in (0.08, 0.04, 0.02):
        x = np.arange(0.0, 2.0 + dt / 2, dt)
        d = fourth_order_derivative(np.exp(x), dt)
        errors.append(np.max(np.abs(d - np.exp(x))))
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0


def test_identity_map_returns_hamiltonian():
    h = -0.5 * (IDENTITY + 0.7 * SIGMA_Z)
    sample = DysonSample(t=0.0, eta=IDENTITY.copy(), eta_dot=np.zeros((2, 2), dtype=complex))
    assert np.allclose(hermitian_counterpart(h, sample), h, atol=1e-15)
    assert np.allclose(physical_hamiltonian(h, sample), h, atol=1e-15)


def test_counterpart_reproduces_rabi_hamiltonian_at_zero():
    # denominator 2 + gamma^2 sin(0) - gamma^2 = 7/4 gives h(0) = -I/2 - (3/7) sigma_z
    h = hermitian_counterpart(H1, eta_closed(0.0, YL))
    expected = np.diag([-13.0 / 14.0, -1.0 / 14.0]).astype(complex)
    assert np.linalg.norm(h - expected) < 1e-13
    assert np.linalg.norm(rabi_h(0.0, YL) - expected) < 1e-15


def test_counterpart_with_static_map_is_isospectral():
    # time-independent eta = sqrt(I - gamma sigma_y) maps H1 onto -1/2 (omega I + phi sigma_z)
    gamma, omega = YL.gamma, YL.omega
    rho_static = IDENTITY - gamma * np.array([[0, -1j], [1j, 0]])
    sample = DysonSample(
        t=0.0, eta=hermitian_sqrt(rho_static), eta_dot=np.zeros((2, 2), dtype=complex)
    )
    h = hermitian_counterpart(H1, sample)
    expected = -0.5 * (omega * IDENTITY + YL.phi * SIGMA_Z)
    assert np.linalg.norm(h - expected) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(eigs, [0.5 * (-omega - YL.phi), 0.5 * (-omega + YL.phi)], atol=1e-12)


def test_counterpart_matches_closed_form_along_window():
    ts = np.linspace(YL.t0, YL.t0 + 2 * YL.period, 401)
    dev = max(
        np.linalg.norm(hermitian_counterpart(H1, eta_closed(t, YL)) - rabi_h(t, YL))
        for t in ts
    )
    assert dev < 1e-9


def test_counterpart_hermiticity_budgets(dyson_fd_window, window_grid, params):
    analytic = max(
        hermiticity_residual(hermitian_counterpart(H1, eta_closed(t, params)))
        for t in np.linspace(params.t0, params.t0 + 2 * params.period, 301)
    )
    assert analytic < 1e-10
    sub = range(0, len(dyson_fd_window.t), 37)
    fd = max(
        hermiticity_residual(hermitian_counterpart(H1, dyson_fd_window[i])) for i in sub
    )
    assert fd < 1e-6


def test_finite_difference_derivative_is_fourth_order():
    # coarse grids so truncation dominates roundoff; each halving gains ~16x
    errors = []
    for dt in (0.08, 0.04, 0.02):
        n = round(2.0 * YL.period / dt)
        series = closed_metric_series(YL.t0, dt, n + 1)
        dys = dyson_from_metric(series)
        err = max(
            np.linalg.norm(
                hermitian_counterpart(H1, dys[i]) - rabi_h(YL.t0 + i * dt, YL)
            )
            for i in range(0, n + 1, 7)
        )
        errors.append(err)
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0


def test_physical_hamiltonian_identity_with_counterpart():
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 97):
        sample = eta_closed(t, YL)
        h = hermitian_counterpart(H1, sample)
        h_tilde = physical_hamiltonian(H1, sample)
        recomposed = sample.eta @ h_tilde @ invert_dyson_map(sample.eta)
        assert np.linalg.norm(recomposed - h) < 1e-9


def test_eta_squares_to_metric_along_window():
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 257):
        sample = eta_closed(t, YL)
        assert np.linalg.norm(sample.eta @ sample.eta - rho_closed(t, YL)) < 1e-10


def test_quasi_hermiticity_residual_splits_observables():
    assert quasi_hermiticity_residual(SIGMA_Z, IDENTITY) == 0.0
    for t in (0.3, 1.9, 4.4):
        rho = rho_closed(t, YL)
        h_tilde = physical_hamiltonian(H1, eta_closed(t, YL))
        assert quasi_hermiticity_residual(h_tilde, rho) < 1e-9
        # the raw generator carries the gauge term and is not an observable
        assert quasi_hermiticity_residual(H1, rho) > 1e-2


def test_invert_dyson_map_guards_singularity():
    with pytest.raises(SingularDysonMap):
        invert_dyson_map(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    m = np.array([[2.0, 0.3], [0.1, 1.0]], dtype=complex)
    assert np.allclose(invert_dyson_map(m) @ m, IDENTITY, atol=1e-14)


def test_dyson_reports_time_of_first_invalid_sample():
    rho = rho_closed(0.0, YL)
    stack = np.stack([rho] * 7)
    stack[2] = np.array([[1.0, 1.0], [0.0, 1.0]])  # not Hermitian
    stack[4] = np.diag([1.0, -1.0])  # not positive definite
    with pytest.raises(NotPositiveDefinite, match="t = 0.5") as err:
        dyson_from_metric(TimeSeries(t0=0.0, dt=0.25, samples=stack))
    assert err.value.t == 0.5


def zeta_path(t):
    """A closed-form metric family in a rotated frame, with every constant nonzero."""
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    h = SU2Hamiltonian(
        kappa0=-1.0, lambda0=0.0, kappa_vec=rot @ [0.0, 0.0, -1.0], lambda_vec=rot @ [-0.6, 0.0, 0.0]
    )
    state = zeta_metric(t, h, ZetaConstants(c1=0.5, c2=-1.0, c3=-2.0, c4=0.3))
    rho = state.alpha[:, None, None] * IDENTITY + np.einsum("nj,jkl->nkl", state.beta_vec, PAULIS)
    return h, rho


def test_analytic_eta_dot_matches_finite_differences():
    dt = 1e-3
    t = np.arange(0.0, 2.0 * np.pi / 0.8 + dt / 2, dt)
    h, rho = zeta_path(t)
    rho_dot = metric_rhs(h, rho)
    eta = hermitian_sqrt(rho)
    eta_dot = hermitian_sqrt_derivative(eta, rho_dot)
    assert np.max(np.linalg.norm(eta_dot - fourth_order_derivative(eta, dt), axis=(1, 2))) < 1e-8
    sylvester = eta @ eta_dot + eta_dot @ eta - rho_dot
    assert np.max(np.linalg.norm(sylvester, axis=(1, 2))) < 1e-12
    assert np.max(np.linalg.norm(eta_dot - np.conj(np.swapaxes(eta_dot, 1, 2)), axis=(1, 2))) < 1e-12


def test_dyson_kernels_on_a_stack_equal_single_calls():
    # 14,501 samples: the size of the default two-period window at dt = 1e-3
    p = YangLeeParams(gamma=0.63, omega=0.9)
    ts = p.t0 + 1e-3 * np.arange(14_501)
    stacked = eta_closed(ts, p)
    rho = rho_closed(ts, p)
    h1 = h1_matrix(p)
    samples = [DysonSample(t=t, eta=e, eta_dot=d) for t, e, d in zip(ts, stacked.eta, stacked.eta_dot)]
    inverses = invert_dyson_map(stacked.eta)
    assert np.array_equal(inverses, np.stack([invert_dyson_map(s.eta) for s in samples]))
    for kernel in (hermitian_counterpart, physical_hamiltonian):
        single = np.stack([kernel(h1, s) for s in samples])
        assert np.array_equal(kernel(h1, stacked), single)
    h_tilde = physical_hamiltonian(h1, stacked)
    residuals = quasi_hermiticity_residual(h_tilde, rho)
    assert residuals.shape == (14_501,)
    assert np.array_equal(residuals, [quasi_hermiticity_residual(a, b) for a, b in zip(h_tilde, rho)])
    assert np.array_equal(
        quasi_hermiticity_residual(h1, rho), [quasi_hermiticity_residual(h1, b) for b in rho]
    )
    assert isinstance(quasi_hermiticity_residual(h_tilde[7], rho[7]), float)


def test_invert_dyson_map_names_the_first_singular_matrix():
    stack = np.stack([IDENTITY] * 4)
    stack[2] = np.ones((2, 2))
    with pytest.raises(SingularDysonMap, match="matrix 2 of the stack"):
        invert_dyson_map(stack)


@pytest.mark.parametrize("kind", ["series", "sample", "flow"])
def test_counterpart_and_physical_hamiltonian_share_one_decomposition(kind, monkeypatch):
    # both read the sample's real Pauli forms: split once from the matrices
    # of a sample built from them, and never for a sample of dyson_from_metric,
    # which keeps the forms its kernels made
    p = YangLeeParams(gamma=0.63, omega=0.9)
    ts = p.t0 + 1e-3 * np.arange(50)
    stacked = eta_closed(ts, p)
    h1 = h1_matrix(p)
    if kind == "series":
        make = lambda: dyson_from_metric(TimeSeries(t0=ts[0], dt=1e-3, samples=rho_closed(ts, p)))
    elif kind == "sample":
        make = lambda: DysonSample(t=ts, eta=stacked.eta, eta_dot=stacked.eta_dot)
    else:
        grid = IntegrationGrid(ts[0], ts[-1], 1e-3)
        make = lambda: dyson_from_metric(integrate_metric(h1_su2(p), rho_closed(ts[0], p), grid))
    expected = [kernel(h1, make()) for kernel in (hermitian_counterpart, physical_hamiltonian)]
    calls = []
    original = dyson.pauli_form

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(dyson, "pauli_form", counted)
    sample = make()
    h = hermitian_counterpart(h1, sample)
    h_tilde = physical_hamiltonian(h1, sample)
    assert len(calls) == (2 if kind == "sample" else 0)
    assert np.array_equal(h, expected[0]) and np.array_equal(h_tilde, expected[1])
