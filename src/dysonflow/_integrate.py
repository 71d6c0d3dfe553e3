"""Shared fixed-step classical Runge-Kutta core for complex array ODEs."""

import numpy as np

from .errors import StepTooLarge


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_every(local_error_bound, check_every):
    """Steps between local error checks, or 0 when the checks are off."""
    return check_every if local_error_bound is not None and check_every > 0 else 0


def stage_times(t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """Every time at which rk4_series, given the same arguments, evaluates f.

    Returns ``(times, position)``. ``times`` is a 1-D array: the half-step
    grid t0 + k dt/2 for k = 0 .. 2 n_steps (step starts, midpoints and
    ends), then the quarter points t + dt/4 and t + 3 dt/4 of each
    error-check step. ``position(t)`` maps a time f is called with to its
    row of ``times``, so a time-dependent coefficient can be evaluated once
    for all stages and the steps can index into the result.
    """
    every = _check_every(local_error_bound, check_every)
    n_half = 2 * n_steps + 1
    times = t0 + 0.5 * dt * np.arange(n_half)
    if every:
        checked = t0 + dt * np.arange(0, n_steps, every)
        times = np.concatenate([times, (checked[:, None] + dt * np.array([0.25, 0.75])).ravel()])
    quarters_per_dt = 4.0 / dt

    def position(t):
        q = round((t - t0) * quarters_per_dt)
        if q % 2 == 0:
            return q // 2
        # a quarter point: step q // 4, the first or second of its pair
        return n_half + 2 * (q // 4 // every) + q % 4 // 2

    return times, position


def rk4_series(f, y0, t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """Integrate y' = f(t, y) on a fixed grid, returning all n_steps + 1 samples.

    Every ``check_every``-th step is additionally taken as two half steps and
    the discrepancy against the full step used as a local error estimate;
    StepTooLarge is raised when the estimate exceeds ``local_error_bound``.
    Pass ``local_error_bound=None`` or ``check_every=0`` to skip the checks.
    The solution itself always advances with the plain full-step result, so
    convergence stays cleanly fourth order.
    """
    y = np.array(y0, dtype=complex)
    out = np.empty((n_steps + 1,) + y.shape, dtype=complex)
    out[0] = y
    checking = _check_every(local_error_bound, check_every) > 0
    for i in range(n_steps):
        t = t0 + i * dt
        y_next = _rk4_step(f, t, y, dt)
        if checking and i % check_every == 0:
            half = _rk4_step(f, t, y, 0.5 * dt)
            half = _rk4_step(f, t + 0.5 * dt, half, 0.5 * dt)
            estimate = float(np.linalg.norm((y_next - half).ravel()))
            if estimate > local_error_bound:
                raise StepTooLarge(
                    f"local error estimate {estimate:.3e} exceeds "
                    f"{local_error_bound:.3e} at t = {t:.6g}; reduce dt"
                )
        y = y_next
        out[i + 1] = y
    return out
