"""Time-ordered propagation in both pictures and metric inner products.

All propagators are built by integrating states (or basis columns) with the
shared fixed-step RK4 core, which keeps the time ordering implicit and
checks its local error at step 0 and every 100th step after it. A source
that is not Hermitian draws one warning, which only evolve_state can
switch off. Unitarity is checked by tests and reported as a diagnostic,
never re-imposed.
"""

import warnings

import numpy as np

from ._integrate import rk4_linear, stage_times
from .dyson import DysonSeries, invert_dyson_map
from .errors import NotHermitian, NotPositiveDefinite
from .series import IntegrationGrid, TimeSeries, grid_index
from .su2 import IDENTITY, complex2x2, frobenius_norm, hermiticity_residual, mul, require_hpd


def _evolve(h_of_t, y0, grid, local_error_bound, hermitian_check=True) -> TimeSeries:
    """RK4 samples of i dy/dt = h(t) y on the grid, with one h_of_t call for every stage.

    h_of_t receives the 1-D array of the integrator's stage times and
    returns an (m, d, d) stack, or one (d, d) matrix for a constant
    generator. ``y0`` None starts from the d x d identity.
    """
    t0, dt, n_steps = grid.t_start, grid.dt, grid.n_steps
    times = stage_times(t0, dt, n_steps, local_error_bound)
    hm = np.asarray(h_of_t(times), dtype=complex)
    if hm.ndim not in (2, 3) or hm.shape[-1] != hm.shape[-2] or (
        hm.ndim == 3 and len(hm) != len(times)
    ):
        raise ValueError(
            f"h_of_t must return a ({len(times)}, d, d) stack or one (d, d) matrix "
            f"for {len(times)} stage times, got shape {hm.shape}"
        )
    if hermitian_check:
        stack = hm.reshape((-1,) + hm.shape[-2:])  # one row for a constant generator
        drift = hermiticity_residual(stack)
        bad = drift > 1e-8 * np.maximum(1.0, frobenius_norm(stack))
        if np.any(bad):
            i = int(np.argmin(np.where(bad, times[: len(bad)], np.inf)))
            warnings.warn(
                f"Hamiltonian source is not Hermitian at t = {times[i]:.6g} "
                f"(residual {drift[i]:.3e}); integrating anyway",
                stacklevel=3,
            )
    if y0 is None:
        y0 = np.eye(hm.shape[-1], dtype=complex)
    hm = -1j * hm  # rebinding frees the unscaled stack before the steps are formed
    samples = rk4_linear(hm, y0, t0, dt, n_steps, local_error_bound)
    return TimeSeries(t0=t0, dt=dt, samples=samples)


def evolve_state(
    h_of_t,
    psi0,
    grid: IntegrationGrid,
    local_error_bound: float | None = 1e-6,
    hermitian_check: bool = True,
) -> TimeSeries:
    """Integrate i d/dt psi = h(t) psi over the grid with fixed-step RK4.

    ``h_of_t`` follows the contract of propagator_series. A non-Hermitian
    source triggers a single warning, naming the first non-Hermitian stage
    time, when ``hermitian_check`` is on; the integrator itself is happy to
    evolve non-Hermitian generators (used for the non-Hermitian picture,
    where the flat norm is not conserved).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1:
        raise ValueError(f"psi0 must be a state vector, got shape {psi0.shape}")
    return _evolve(h_of_t, psi0, grid, local_error_bound, hermitian_check)


def propagator_series(
    h_of_t,
    grid: IntegrationGrid,
    local_error_bound: float | None = 1e-6,
) -> TimeSeries:
    """u(t, grid.t_start) at every grid time, integrated once as a matrix ODE.

    ``h_of_t`` is called exactly once, with the 1-D array of every RK4
    stage time (grid points, midpoints and the quarter points of the
    error-check steps; see ``_integrate.stage_times``). It returns the
    matching (m, d, d) stack of Hamiltonians, or one (d, d) matrix for a
    constant generator. The columns of u are the evolved canonical basis
    states; u(t_start, t_start) is the identity exactly.
    """
    return _evolve(h_of_t, None, grid, local_error_bound)


def time_ordered_u(
    h_of_t,
    t_from: float,
    t_to: float,
    dt: float,
    local_error_bound: float | None = 1e-6,
) -> np.ndarray:
    """Time-ordered propagator u(t_to, t_from) for the Hamiltonian source.

    The last sample of propagator_series over IntegrationGrid(t_from, t_to,
    dt), which refuses a dt that does not divide t_to - t_from and backward
    spans; t_to = t_from returns the identity. Composition
    u(t2, t1) u(t1, t0) = u(t2, t0) holds to integrator accuracy.
    """
    if t_to == t_from:
        return IDENTITY.copy()
    grid = IntegrationGrid(t_from, t_to, dt)
    return _evolve(h_of_t, None, grid, local_error_bound)[-1]


def nonhermitian_u(eta_series: DysonSeries, u, t_from: float, t_to: float) -> np.ndarray:
    """Non-Hermitian-picture propagator U(t_to, t_from) = eta^-1(t_to) u eta(t_from).

    Generally not unitary in the flat inner product, but it preserves the
    rho-weighted one. The Dyson maps at both endpoints are looked up on the
    sample grid of ``eta_series``.
    """
    u = np.asarray(u, dtype=complex)
    grid = (eta_series.t0, eta_series.dt, len(eta_series))
    eta_start = eta_series.eta[grid_index(t_from, *grid)]
    eta_end = eta_series.eta[grid_index(t_to, *grid)]
    return mul(mul(invert_dyson_map(eta_end), u), eta_start)


def rho_inner(a, b, rho) -> complex:
    """Metric inner product <a | rho b> = a^dag rho b.

    Conjugate linear in ``a``, linear in ``b``, and positive definite
    because ``rho`` is required to be Hermitian positive definite.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho = complex2x2(rho)
    try:
        require_hpd(rho)
    except NotHermitian as exc:
        raise NotPositiveDefinite(f"rho is not Hermitian positive definite: {exc}") from exc
    return complex(a.conj() @ rho @ b)
