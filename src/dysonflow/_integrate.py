"""Shared fixed-step classical Runge-Kutta core for complex array ODEs.

``rk4_series`` steps any y' = f(t, y) one step at a time and is the
reference. ``rk4_linear`` takes the same steps for a linear y' = A(t) y
with a 2x2 generator, where each step is a 2x2 matrix, and builds the
whole series as a blocked scan over those step matrices: one pass
composes the deltas of every block's first steps, the block starts are
stepped through the blocks, and one batched product fills every other
row. Stacks of steps multiply with su2.mul, one matrix with numpy's @.
The series is stored time-last, so each entry of the state is one
contiguous array over the steps (the entry-major layout of su2).
"""

import math

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


def _step_deltas(a1, a2, a3, h):
    """Deltas D = S - I of the RK4 steps S of y' = A y, over stacks of steps.

    ``a1``, ``a2`` and ``a3`` hold A at the start, middle and end of each
    step. With K1 = A1, K2 = A2 (I + h/2 K1), K3 = A2 (I + h/2 K2) and
    K4 = A3 (I + h K3), a step maps y to y + D y with
    D = h/6 (K1 + 2 K2 + 2 K3 + K4), the step rk4_series takes for
    f(t, y) = A(t) y. D is kept apart from I so its low bits survive.
    Stacks multiply with su2.mul, one constant matrix with numpy's @.
    """
    dot = mul if a1.ndim == 3 else np.matmul
    k2 = dot(a2, a1)
    k2 *= 0.5 * h
    k2 += a2
    k3 = dot(a2, k2)
    k3 *= 0.5 * h
    k3 += a2
    k4 = dot(a3, k3)
    k4 *= h
    k4 += a3
    k3 += k2
    k3 *= 2.0
    k3 += a1
    k3 += k4
    k3 *= h / 6.0
    return k3


def _prefix_deltas(blocks):
    """Deltas of the first 1, 2, .., size steps of every block, in one pass.

    ``blocks`` is (n_blocks, size, 2, 2); entry [b, j] of the entry-major
    result, of the same shape, is the delta of block b's first j + 1 steps.
    Each is the one before with one more step composed on, X + (D + D X),
    summed with a running compensation (Kahan): adding nearly the same
    small D X over and over rounds nearly the same way each time, and a
    block delta shared by every block would carry that bias through all of
    them. A stack of blocks composes with su2.mul. A single block (the
    delta shared by every step of a constant generator, or one step) is a
    chain of one matrix and composes with @, as _scan steps its block
    starts: su2.mul's twelve elementwise calls cost more than the
    arithmetic of one 2x2 product.
    """
    dot = mul if len(blocks) > 1 else np.matmul
    prefix = _entry_major(blocks.shape[:2])
    prefix[:, 0] = blocks[:, 0]
    carry = np.zeros_like(prefix[:, 0])
    for j in range(1, blocks.shape[1]):
        step, total = blocks[:, j], prefix[:, j - 1]
        inc = dot(step, total)
        inc += step
        inc -= carry
        new = np.add(total, inc, out=prefix[:, j])
        carry = (new - total) - inc
    return prefix


def _scan(deltas, y0, n_steps):
    """States y_0 .. y_n of y_{i+1} = y_i + D_i y_i, as one blocked scan.

    ``deltas`` is the (n, 2, 2) stack of D_i, or (1, 2, 2) for one delta
    shared by every step; ``y0`` is (2, k). The steps are cut into blocks
    of about sqrt(n), and the deltas of every block's first 1, 2, .., size
    steps are composed in one pass, for all blocks at once. The block
    start states are stepped through the blocks in turn with each block's
    whole delta, its last prefix. Then every other row of every block is
    its block start plus a prefix delta applied to it, in one batched
    product, so a block's last row and the next block's start come out of
    the same arithmetic and the series has no seams for a finite
    difference to pick up. The n mod size steps left after the last whole
    block are taken one by one, or, for a shared delta, as one more block
    cut short. The (n + 1, 2, k) result is stored as (2, k, n + 1) memory,
    so each entry's series is one contiguous array.
    """
    size = max(1, math.isqrt(n_steps))
    n_blocks = n_steps // size
    whole = n_blocks * size
    shared = len(deltas) == 1
    if shared:
        blocks = np.broadcast_to(deltas, (1, size, 2, 2))
    else:
        blocks = deltas[:whole].reshape(n_blocks, size, 2, 2)
    prefix = _prefix_deltas(blocks)
    block_delta = np.broadcast_to(prefix[:, -1], (n_blocks, 2, 2))
    out = _entry_major((n_steps + 1,), y0.shape)
    filled = out[:whole].reshape((n_blocks, size) + y0.shape)  # a view: only the time axis is split
    # apart from out: an add that reads out while writing it would copy the whole product first
    starts = np.empty((n_blocks,) + y0.shape, dtype=complex)
    y = y0
    for b in range(n_blocks):
        starts[b] = y
        y = y + block_delta[b] @ y
    out[whole] = y
    filled[:, 0] = starts
    starts = starts[:, None]
    np.add(mul(prefix[:, :-1], starts), starts, out=filled[:, 1:])
    if shared:  # the rest is a partial block, whose prefix deltas are the shared ones
        np.add(mul(prefix[0, : n_steps - whole], out[whole]), out[whole], out=out[whole + 1 :])
    else:
        for i in range(whole, n_steps):
            out[i + 1] = out[i] + deltas[i] @ out[i]
    return out


def rk4_linear(a, y0, t0, dt, n_steps, local_error_bound=1e-6, check_every=100):
    """rk4_series for a linear y' = A(t) y, built as a scan over step matrices.

    ``a`` is one constant (2, 2) generator, or the (m, 2, 2) stack of A at
    every row of ``stage_times(t0, dt, n_steps, local_error_bound,
    check_every)``. ``y0`` is a (2,) vector or a (2, k) matrix of columns.
    Generators of any other size raise ValueError.
    Returns the n_steps + 1 samples rk4_series gives for f(t, y) = A(t) y,
    equal up to rounding. The local error checks are those of rk4_series:
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
        deltas = _step_deltas(a, a, a, dt)[None]
        half = _step_deltas(a, a, a, 0.5 * dt)
        halves = (half + half + half @ half)[None]  # (I + half)^2 - I
    else:
        deltas = _step_deltas(a[0 : n_half - 1 : 2], a[1:n_half:2], a[2:n_half:2], dt)
        starts, mids = 2 * checked, n_half + 2 * np.arange(len(checked))
        first = _step_deltas(a[starts], a[mids], a[starts + 1], 0.5 * dt)
        second = _step_deltas(a[starts + 1], a[mids + 1], a[starts + 2], 0.5 * dt)
        halves = second + first + mul(second, first)  # (I + second)(I + first) - I
    out = _scan(deltas, y, n_steps)
    if len(checked):
        full = deltas if len(deltas) == 1 else deltas[checked]
        misses = mul(full - halves, out[checked])
        estimates = np.linalg.norm(misses.reshape(len(checked), -1), axis=1)
        bad = np.nonzero(estimates > local_error_bound)[0]
        if bad.size:
            t = t0 + int(checked[bad[0]]) * dt
            raise StepTooLarge(
                f"local error estimate {estimates[bad[0]]:.3e} exceeds "
                f"{local_error_bound:.3e} at t = {t:.6g}; reduce dt"
            )
    return out[..., 0] if vector else out
