"""Shared fixed-step classical Runge-Kutta core for complex array ODEs.

``rk4_series`` steps any y' = f(t, y) one step at a time and is the
reference. ``rk4_linear`` takes the same steps for a linear y' = A(t) y
with a 2x2 generator, where each step is a 2x2 matrix, and builds the
whole series as a pairwise (log-depth) scan over the deltas S - I of
those step matrices. Every product goes entry by entry through
su2.mul, never through numpy's BLAS-backed matrix product, so the series
has the same bits whatever BLAS kernel numpy loads. The series is stored
time-last, so each entry of the state is one contiguous array over the
steps (the entry-major layout of su2).
"""

import numpy as np

from .errors import StepTooLarge
from .su2 import _entry_major, mul


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_every(local_error_bound, check_every):
    """Steps between local error checks, or 0 when the checks are off."""
    return check_every if local_error_bound is not None and check_every > 0 else 0


def _require_small(estimates, local_error_bound, times):
    """Raise StepTooLarge at the first of ``times`` whose estimate is not at most the bound, a NaN one too."""
    bad = np.nonzero(~(np.asarray(estimates) <= local_error_bound))[0]
    if bad.size:
        raise StepTooLarge(
            f"local error estimate {estimates[bad[0]]:.3e} exceeds "
            f"{local_error_bound:.3e} at t = {times[bad[0]]:.6g}; reduce dt"
        )


def stage_times(t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """Every time at which rk4_series, given the same arguments, evaluates f.

    A 1-D array: the half-step grid t0 + k dt/2 for k = 0 .. 2 n_steps
    (step starts, midpoints and ends), then the quarter points t + dt/4 and
    t + 3 dt/4 of each error-check step. A time-dependent coefficient
    evaluated once at all of them is the stage stack rk4_linear takes.
    """
    every = _check_every(local_error_bound, check_every)
    times = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    if every:
        checked = t0 + dt * np.arange(0, n_steps, every)
        times = np.concatenate([times, (checked[:, None] + dt * np.array([0.25, 0.75])).ravel()])
    return times


def rk4_series(f, y0, t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """Integrate y' = f(t, y) on a fixed grid, returning all n_steps + 1 samples.

    Every ``check_every``-th step is additionally taken as two half steps and
    the discrepancy against the full step used as a local error estimate;
    StepTooLarge is raised unless the estimate is at most ``local_error_bound``.
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
            _require_small([np.linalg.norm((y_next - half).ravel())], local_error_bound, [t])
        y = y_next
        out[i + 1] = y
    return out


def _step_deltas(a1, a2, a3, h):
    """Deltas D = S - I of the RK4 steps S of y' = A y, over stacks of steps.

    ``a1``, ``a2`` and ``a3`` are (n, 2, 2) stacks of A at the start,
    middle and end of each step. With K1 = A1, K2 = A2 (I + h/2 K1),
    K3 = A2 (I + h/2 K2) and K4 = A3 (I + h K3), a step maps y to y + D y
    with D = h/6 (K1 + 2 K2 + 2 K3 + K4), the step rk4_series takes for
    f(t, y) = A(t) y. D is kept apart from I so its low bits survive.
    """
    k2 = mul(a2, a1)
    k2 *= 0.5 * h
    k2 += a2
    k3 = mul(a2, k2)
    k3 *= 0.5 * h
    k3 += a2
    k4 = mul(a3, k3)
    k4 *= h
    k4 += a3
    k3 += k2
    k3 *= 2.0
    k3 += a1
    k3 += k4
    k3 *= h / 6.0
    return k3


def _compose(x, y):
    """Delta of step y then step x: (I + X)(I + Y) - I = X + Y + XY, over stacks.

    When x and y each repeat one matrix (a constant generator's broadcast
    delta, whose stride along the steps is 0), the one product is formed
    once and broadcast, with the bits of forming it in every row.
    """
    if len(x) > 1 and x.strides[0] == 0 == y.strides[0]:
        return np.broadcast_to(_compose(x[0], y[0]), np.broadcast_shapes(x.shape, y.shape))
    xy = mul(x, y)
    xy += x + y
    return xy


def _prefix_deltas(deltas):
    """Delta of the first i + 1 steps at every row i, as a pairwise scan.

    Each pair of adjacent steps composes into one delta, and the n // 2
    pair deltas are scanned the same way, so the scan takes about
    2 log2(n) stack products (G. E. Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190, 1990). Row 2k + 1 is row k of the pair
    scan; row 2k > 0 composes step 2k onto row k - 1 of it. From two steps
    on, the result is an entry-major (n, 2, 2) stack; fewer come back as
    given.
    """
    n = len(deltas)
    if n < 2:
        return deltas
    pairs = _prefix_deltas(_compose(deltas[1::2], deltas[: n - n % 2 : 2]))
    out = _entry_major((n,))
    out[0] = deltas[0]
    out[1::2] = pairs
    out[2::2] = _compose(deltas[2::2], pairs[: (n - 1) // 2])
    return out


def _scan(deltas, y):
    """The states y_0 = y .. y_n of y_{i+1} = y_i + D_i y_i, entry-major.

    ``deltas`` is the (n, 2, 2) stack of D_i and ``y`` the (2, k) start;
    the series is (n + 1, 2, k). The top level of the pairwise scan
    works on the states: every even row 2k applies to y the delta of its
    first 2k steps, a prefix of the n // 2 pair deltas, in one product, and
    every odd row is the even row before it with one more step. No
    (n, 2, 2) stack of prefix deltas is formed.
    """
    n = len(deltas)
    out = _entry_major((n + 1,), y.shape)
    out[0] = y
    pairs = _prefix_deltas(_compose(deltas[1::2], deltas[: n - n % 2 : 2]))
    np.add(mul(pairs, y), y, out=out[2::2])
    before = out[:n:2]
    np.add(mul(deltas[::2], before), before, out=out[1::2])
    return out


def rk4_linear(a, y0, t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """rk4_series for a linear y' = A(t) y, built as a scan over step matrices.

    ``a`` is one constant (2, 2) generator, or the (m, 2, 2) stack of A at
    every row of ``stage_times(t0, dt, n_steps, local_error_bound,
    check_every)``. ``y0`` is a (2,) vector or a (2, k) matrix of columns.
    Generators of any other size raise ValueError.
    Returns the n_steps + 1 samples rk4_series gives for f(t, y) = A(t) y,
    equal up to rounding, from the pairwise scan _scan. A constant
    generator's one step delta is broadcast over every step and goes
    through the same scan, so it gives the bits of its constant stage
    stack. The local error checks are those of rk4_series:
    every ``check_every``-th step is also taken as two half steps, the
    estimate is the norm of the difference applied to y at that step, and
    StepTooLarge names the first step whose estimate exceeds
    ``local_error_bound``.
    """
    a = np.asarray(a, dtype=complex)
    y = np.array(y0, dtype=complex)
    vector = y.ndim == 1
    if vector:
        y = y[:, None]
    if a.ndim not in (2, 3) or a.shape[-2:] != (2, 2) or y.ndim != 2 or y.shape[0] != 2:
        raise ValueError(
            f"generator shape {a.shape} does not fit state shape {np.shape(y0)}; "
            "steps must be 2x2, on a (2,) or (2, k) state"
        )
    every = _check_every(local_error_bound, check_every)
    checked = np.arange(0, n_steps, every) if every else np.arange(0)
    n_half = 2 * n_steps + 1
    if a.ndim == 3 and len(a) != n_half + 2 * len(checked):
        raise ValueError(
            f"a must hold {n_half + 2 * len(checked)} stage rows (see stage_times), "
            f"got shape {a.shape}"
        )

    if a.ndim == 2:
        a = a[None]
        deltas = np.broadcast_to(_step_deltas(a, a, a, dt), (n_steps, 2, 2))
        half = _step_deltas(a, a, a, 0.5 * dt)
        halves = _compose(half, half)
    else:
        deltas = _step_deltas(a[0 : n_half - 1 : 2], a[1:n_half:2], a[2:n_half:2], dt)
        starts, mids = 2 * checked, n_half + 2 * np.arange(len(checked))
        first = _step_deltas(a[starts], a[mids], a[starts + 1], 0.5 * dt)
        second = _step_deltas(a[starts + 1], a[mids + 1], a[starts + 2], 0.5 * dt)
        halves = _compose(second, first)
    out = _scan(deltas, y)
    if len(checked):
        misses = mul(deltas[checked] - halves, out[checked])
        estimates = np.linalg.norm(misses.reshape(len(checked), -1), axis=1)
        _require_small(estimates, local_error_bound, t0 + checked * dt)
    return out[..., 0] if vector else out
