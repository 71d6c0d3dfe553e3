"""Closed forms of the one-site Yang-Lee model against independent oracles."""

import math

import numpy as np
import pytest

from dysonflow import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    IntegrationGrid,
    YangLeeParams,
    ZetaConstants,
    basis_states,
    eigenvalues_h1,
    energy_expectation,
    eta_closed,
    evolve_state,
    h1_matrix,
    hermitian_counterpart,
    metric_rhs,
    h1_su2,
    psi_pm,
    rabi_h,
    rho_closed,
    rho_closed_constants,
    rho_closed_dot,
    rho_inner,
    theta,
    theta_dot,
    u_closed,
    zeta_metric,
)
from dysonflow.yang_lee import eta_form

YL = YangLeeParams(gamma=0.5, omega=1.0)
H1 = h1_matrix(YL)
PHI = math.sqrt(3.0) / 2.0


def test_params_invariants():
    with pytest.raises(ValueError):
        YangLeeParams(gamma=1.0)
    with pytest.raises(ValueError):
        YangLeeParams(gamma=0.0)
    with pytest.raises(ValueError):
        YangLeeParams(gamma=-0.2)
    # below 2^-27, phi = sqrt(1 - gamma^2) rounds to 1 and the closed forms divide by 1 - phi
    for gamma in (1e-9, 2.0**-27):
        with pytest.raises(ValueError, match="2\\^-27"):
            YangLeeParams(gamma=gamma)
    assert YangLeeParams(gamma=1e-8).phi < 1.0
    assert abs(YL.phi**2 + YL.gamma**2 - 1.0) < 1e-15
    assert abs(YL.t0 + math.pi / (2.0 * YL.phi)) < 1e-15


def test_h1_matrix_is_h1_su2_composed():
    rng = np.random.default_rng(29)
    pairs = list(zip(rng.uniform(1e-6, 1.0, 2000), rng.uniform(-5.0, 5.0, 2000)))
    for gamma, omega in pairs + [(0.5, 0.0), (0.5, -0.0)]:
        p = YangLeeParams(gamma=gamma, omega=omega)
        assert h1_matrix(p).tobytes() == h1_su2(p).matrix().tobytes()


def test_chain_single_site_reduction():
    h = h1_matrix(YL)
    expected = -0.5 * (YL.omega * IDENTITY + SIGMA_Z + 1j * YL.gamma * SIGMA_X)
    assert np.array_equal(h, expected)


def test_eigenvalues_h1():
    e_plus, e_minus = eigenvalues_h1(YL)
    assert abs(e_plus - 0.5 * (-1.0 + PHI)) < 1e-15
    assert abs(e_minus - 0.5 * (-1.0 - PHI)) < 1e-15
    assert abs(e_plus - (-0.0669872981077807)) < 1e-12
    assert abs(e_minus - (-0.9330127018922193)) < 1e-12
    assert abs((e_plus - e_minus) - YL.phi) < 1e-15
    # Hermitian limit: omega = 0, gamma -> 0 leaves -sigma_z/2 with levels +-1/2
    tiny = YangLeeParams(gamma=1e-8, omega=0.0)
    ep, em = eigenvalues_h1(tiny)
    assert abs(ep - 0.5) < 1e-9 and abs(em + 0.5) < 1e-9


def test_psi_pm_solves_static_equation():
    rng = np.random.default_rng(42)
    e_plus, e_minus = eigenvalues_h1(YL)
    for t in rng.uniform(-10, 10, size=100):
        for sign, energy in ((+1, e_plus), (-1, e_minus)):
            psi = psi_pm(t, sign, YL)
            assert np.linalg.norm(H1 @ psi - energy * psi) < 1e-12


def test_psi_metric_inner_products():
    rng = np.random.default_rng(8)
    for t in rng.uniform(-10, 10, size=40):
        rho = rho_closed(t, YL)
        plus = psi_pm(t, +1, YL)
        minus = psi_pm(t, -1, YL)
        assert abs(rho_inner(plus, plus, rho) - 1.0) < 1e-12
        assert abs(rho_inner(minus, minus, rho) - 1.0) < 1e-12
        assert abs(rho_inner(minus, plus, rho) - 0.5j) < 1e-12
        assert abs(rho_inner(plus, minus, rho) + 0.5j) < 1e-12


def test_rho_closed_at_zero_and_det():
    expected = np.array([[2.0, PHI + 1j], [PHI - 1j, 2.0]], dtype=complex)
    assert np.linalg.norm(rho_closed(0.0, YL) - expected) < 1e-14
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 211):
        rho = rho_closed(t, YL)
        det = np.linalg.det(rho).real
        assert abs(det - 2.25) < 1e-13


def test_rho_closed_solves_metric_flow():
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 101):
        rho = rho_closed(t, YL)
        residual = H1.conj().T @ rho - rho @ H1 - 1j * rho_closed_dot(t, YL)
        assert np.linalg.norm(residual) < 1e-10
        assert np.linalg.norm(metric_rhs(h1_su2(YL), rho) - rho_closed_dot(t, YL)) < 1e-12


def test_rho_closed_constants_reproduce_it():
    c = rho_closed_constants(YL)
    assert (c.c1, c.c4) == (0.0, 0.0)
    assert abs(c.c2 + YL.phi / YL.gamma) < 1e-15
    assert abs(c.c3 + 1.0 / YL.gamma) < 1e-15
    for t in (-2.0, 0.0, 3.3):
        assert np.linalg.norm(zeta_metric(t, h1_su2(YL), c).matrix() - rho_closed(t, YL)) < 1e-13


def test_eta_closed_squares_to_metric_dense_grid():
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 1000):
        sample = eta_closed(t, YL)
        assert np.linalg.norm(sample.eta @ sample.eta - rho_closed(t, YL)) < 1e-10
        assert np.linalg.norm(sample.eta - sample.eta.conj().T) < 1e-14
        assert np.linalg.norm(sample.eta_dot - sample.eta_dot.conj().T) < 1e-14


def test_eta_closed_component_values_at_zero():
    p_plus = math.sqrt(2.0 + math.sqrt(7.0) / 2.0)
    p_minus = math.sqrt(2.0 - math.sqrt(7.0) / 2.0)
    sample = eta_closed(0.0, YL)
    coeff_i = 0.5 * (sample.eta[0, 0] + sample.eta[1, 1]).real
    assert abs(coeff_i - 0.5 * (p_plus + p_minus)) < 1e-13
    # printed two-branch form away from the anchor: weight (p+ - p-) / (2 |p0|)
    p0 = 1.0 + 1j * PHI
    weight = (p_plus - p_minus) / (2.0 * abs(p0))
    expected = (
        0.5 * (p_plus + p_minus) * IDENTITY
        + weight * (p0.imag * SIGMA_X - p0.real * np.array([[0, -1j], [1j, 0]]))
    )
    assert np.linalg.norm(sample.eta - expected) < 1e-13


def test_eta_closed_derivative_matches_finite_difference():
    step = 1e-6
    for t in (-1.2, 0.0, 0.9, 2.7, YL.t0):
        fd = (eta_closed(t + step, YL).eta - eta_closed(t - step, YL).eta) / (2 * step)
        assert np.linalg.norm(eta_closed(t, YL).eta_dot - fd) < 1e-8


def test_eta_form_is_eta_closed_without_its_derivative():
    # the numeric oracle's eta: the form eta_closed holds, bit for bit, on a
    # stack of times or at one
    for p in (YL, YangLeeParams(gamma=0.99, omega=0.7)):
        ts = p.t0 + 1e-3 * np.arange(-1000, 2001)
        for t in (ts, 0.0, p.t0):
            assert np.array_equal(eta_form(t, p).view(np.int64), eta_closed(t, p).forms[0].view(np.int64))


def test_rabi_h_endpoint_forms():
    # denominator at the anchor is 2 phi^2, so the sigma_z weight is exactly 1
    h_anchor = rabi_h(YL.t0, YL)
    assert np.linalg.norm(h_anchor - (-0.5) * (YL.omega * IDENTITY + SIGMA_Z)) < 1e-13
    # at -t0 the denominator is 2, so the sigma_z coefficient is -phi^2/2
    h_mirror = rabi_h(-YL.t0, YL)
    coeff = 0.5 * (h_mirror[0, 0] - h_mirror[1, 1]).real
    assert abs(coeff - (-(YL.phi**2) / 2.0)) < 1e-14
    # periodicity
    assert np.linalg.norm(rabi_h(0.4, YL) - rabi_h(0.4 + YL.period, YL)) < 1e-13


def test_rabi_h_accepts_time_arrays():
    ts = np.linspace(YL.t0, YL.t0 + YL.period, 50)
    stack = rabi_h(ts, YL)
    assert stack.shape == (50, 2, 2)
    assert np.array_equal(stack, np.stack([rabi_h(t, YL) for t in ts]))
    assert rabi_h(ts.reshape(5, 10), YL).shape == (5, 10, 2, 2)


def test_rabi_h_equals_dyson_reconstruction():
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 301):
        dev = np.linalg.norm(rabi_h(t, YL) - hermitian_counterpart(H1, eta_closed(t, YL)))
        assert dev < 1e-9


def test_theta_anchor_and_continuity():
    assert abs(theta(YL.t0, YL)) < 1e-12
    ts = np.linspace(YL.t0, YL.t0 + 2 * YL.period, 200001)
    values = theta(ts, YL)
    steps = np.diff(values)
    # smooth and strictly increasing; max slope is omega/2 + phi^2/(2 phi^2)
    slope_cap = 0.5 * YL.omega + YL.phi**2 / (2.0 - 2.0 * YL.gamma**2)
    assert np.all(steps > 0.0)
    assert np.max(steps) < 1.5 * slope_cap * (ts[1] - ts[0])


def test_theta_derivative_including_tan_pole():
    step = 1e-6

    def rate(t):
        return (theta(t + step, YL) - theta(t - step, YL)) / (2.0 * step)

    for t in (0.3, 1.1, math.pi / YL.phi, 2 * math.pi / YL.phi, 5.0):
        denom = 2.0 + YL.gamma**2 * math.sin(YL.phi * t) - YL.gamma**2
        expected = 0.5 * YL.omega + YL.phi**2 / denom
        assert abs(rate(t) - expected) < 1e-6


@pytest.mark.parametrize("gamma", [0.01, 0.5, 0.995, 0.9999])
def test_theta_dot_matches_a_richardson_difference_of_theta(gamma):
    # central differences of step h and h/2, extrapolated to O(h^4), over two periods
    p = YangLeeParams(gamma=gamma, omega=0.8)
    ts = np.linspace(p.t0, p.t0 + 2 * p.period, 301)
    central = lambda h: (theta(ts + h, p) - theta(ts - h, p)) / (2.0 * h)
    richardson = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert np.max(np.abs(theta_dot(ts, p) - richardson)) < 1e-9
    assert isinstance(theta_dot(0.3, p), float)
    assert np.array_equal(theta_dot(ts[:3], p), [theta_dot(t, p) for t in ts[:3]])


def test_u_closed_identity_unitarity_tdse():
    assert np.linalg.norm(u_closed(YL.t0, YL) - IDENTITY) < 1e-12
    step = 1e-6
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 157):
        u = u_closed(t, YL)
        assert np.linalg.norm(u.conj().T @ u - IDENTITY) < 1e-14
        du = (u_closed(t + step, YL) - u_closed(t - step, YL)) / (2.0 * step)
        assert np.linalg.norm(rabi_h(t, YL) @ u - 1j * du) < 1e-8
    # det u advances with the trace phase alone
    t_probe = 1.7
    det = np.linalg.det(u_closed(t_probe, YL))
    assert abs(det - np.exp(1j * YL.omega * (t_probe - YL.t0))) < 1e-12


def test_u_closed_column_matches_numeric_propagation():
    basis = basis_states(YL)
    grid = IntegrationGrid(YL.t0, YL.t0 + round(YL.period / 1e-3) * 1e-3, 1e-3)
    numeric = evolve_state(lambda t: rabi_h(t, YL), basis.phi1, grid)
    dev = max(
        np.linalg.norm(numeric[i] - u_closed(t, YL) @ np.array([1.0, 0.0]))
        for i, t in enumerate(grid.times)
    )
    assert dev < 1e-7


def test_basis_reconstruction_and_orthonormality():
    basis = basis_states(YL)
    assert np.linalg.norm(basis.phi1 - np.array([1.0, 0.0])) < 1e-10
    assert np.linalg.norm(basis.phi2 - np.array([0.0, 1.0])) < 1e-10
    assert abs(basis.phi1.conj() @ basis.phi2) < 1e-10
    # same reconstruction at other parameter points
    for gamma, omega in ((0.2, 0.7), (0.8, 1.9), (0.65, -0.4)):
        p = YangLeeParams(gamma=gamma, omega=omega)
        b = basis_states(p)
        assert np.linalg.norm(b.phi1 - np.array([1.0, 0.0])) < 1e-10
        assert np.linalg.norm(b.phi2 - np.array([0.0, 1.0])) < 1e-10


def test_dyson_mapped_states_solve_hermitian_equation():
    e_plus, e_minus = eigenvalues_h1(YL)
    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 161):
        for sign, energy in ((+1, e_plus), (-1, e_minus)):
            sample = eta_closed(t, YL)
            psi = psi_pm(t, sign, YL)
            phi = sample.eta @ psi
            d_phi = sample.eta_dot @ psi - 1j * energy * (sample.eta @ psi)
            assert np.linalg.norm(rabi_h(t, YL) @ phi - 1j * d_phi) < 1e-8


def test_energy_expectation_values():
    e_plus, e_minus = eigenvalues_h1(YL)
    assert abs(energy_expectation(YL.t0, +1, YL) - e_plus) < 1e-14
    assert abs(energy_expectation(YL.t0, -1, YL) - e_minus) < 1e-14
    assert abs(energy_expectation(-YL.t0, +1, YL) - 0.5 * (PHI**3 - 1.0)) < 1e-14
    assert abs(energy_expectation(-YL.t0, -1, YL) - 0.5 * (-(PHI**3) - 1.0)) < 1e-14
    # desk value at t = 0: (3 sqrt(3)/8) / (7/4) - 1/2
    assert abs(energy_expectation(0.0, +1, YL) - (-0.1288462555209549)) < 1e-13
    assert abs(energy_expectation(0.4, +1, YL) - energy_expectation(0.4 + YL.period, +1, YL)) < 1e-14


def test_energy_matches_both_picture_expectations():
    from dysonflow import physical_hamiltonian

    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 97):
        sample = eta_closed(t, YL)
        rho = rho_closed(t, YL)
        h_tilde = physical_hamiltonian(H1, sample)
        for sign in (+1, -1):
            psi = psi_pm(t, sign, YL)
            phi = sample.eta @ psi
            closed = energy_expectation(t, sign, YL)
            hermitian_side = (phi.conj() @ rabi_h(t, YL) @ phi).real
            metric_side = (psi.conj() @ rho @ h_tilde @ psi).real
            assert abs(closed - hermitian_side) < 1e-9
            assert abs(closed - metric_side) < 1e-9


def test_energy_extremes_over_one_period():
    ts = YL.t0 + np.linspace(0.0, YL.period, 20001)
    e = np.array([energy_expectation(t, +1, YL) for t in ts])
    assert abs(ts[np.argmax(e)] - YL.t0) < 2e-3 or abs(ts[np.argmax(e)] - (YL.t0 + YL.period)) < 2e-3
    assert abs(ts[np.argmin(e)] - (-YL.t0)) < 2e-3


def test_positivity_margin_shrinks_toward_exceptional_point():
    gammas = np.linspace(0.5, 0.999, 40)
    margins = [(1.0 - g * g) ** 2 / (g * g) for g in gammas]
    assert all(a > b for a, b in zip(margins, margins[1:]))
    # library agrees with the formula
    for g in (0.5, 0.9, 0.999):
        p = YangLeeParams(gamma=g, omega=1.0)
        det = np.linalg.det(rho_closed(1.3, p)).real
        assert abs(det - (1.0 - g * g) ** 2 / (g * g)) < 1e-10


def test_triple_consistency_between_h_forms():
    from dysonflow import invert_dyson_map, physical_hamiltonian

    for t in np.linspace(YL.t0, YL.t0 + 2 * YL.period, 77):
        sample = eta_closed(t, YL)
        direct = rabi_h(t, YL)
        reconstructed = hermitian_counterpart(H1, sample)
        sandwiched = sample.eta @ physical_hamiltonian(H1, sample) @ invert_dyson_map(sample.eta)
        assert np.linalg.norm(direct - reconstructed) < 1e-9
        assert np.linalg.norm(reconstructed - sandwiched) < 1e-9
        assert np.linalg.norm(direct - sandwiched) < 1e-9


def test_closed_forms_on_a_time_array_equal_scalar_calls():
    # 14,501 samples: the size of the default two-period window at dt = 1e-3
    ts = YL.t0 + 1e-3 * np.arange(14_501)
    for kernel in (rho_closed, rho_closed_dot, u_closed):
        assert np.array_equal(kernel(ts, YL), np.stack([kernel(t, YL) for t in ts]))
    stacked = eta_closed(ts, YL)
    singles = [eta_closed(t, YL) for t in ts]
    assert np.array_equal(stacked.t, ts)
    assert np.array_equal(stacked.eta, np.stack([s.eta for s in singles]))
    assert np.array_equal(stacked.eta_dot, np.stack([s.eta_dot for s in singles]))
    h, zeta = h1_su2(YL), ZetaConstants(c1=0.4, c2=-1.1, c3=-2.0, c4=0.3)
    states = zeta_metric(ts, h, zeta)
    single_states = [zeta_metric(t, h, zeta) for t in ts]
    assert np.array_equal(states.t, ts)
    assert np.array_equal(states.alpha, [s.alpha for s in single_states])
    assert np.array_equal(states.beta_vec, np.stack([s.beta_vec for s in single_states]))
    assert np.array_equal(states.matrix(), np.stack([s.matrix() for s in single_states]))
    for sign in (+1, -1):
        assert np.array_equal(psi_pm(ts, sign, YL), np.stack([psi_pm(t, sign, YL) for t in ts]))
        energies = energy_expectation(ts, sign, YL)
        assert np.array_equal(energies, [energy_expectation(t, sign, YL) for t in ts])
