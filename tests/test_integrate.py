"""The linear RK4 scan against the generic step-by-step RK4 reference."""

import re

import numpy as np
import pytest

from dysonflow import IntegrationGrid, propagator_series
from dysonflow._integrate import rk4_linear, rk4_series, stage_times
from dysonflow.errors import StepTooLarge

RNG = np.random.default_rng(20161024)
# non-Hermitian coefficient matrices of A(t) = B0 + cos(2 t) B1 + sin(3 t) B2
B = 0.5 * (RNG.normal(size=(3, 2, 2)) + 1j * RNG.normal(size=(3, 2, 2)))


def a_of_t(t):
    t = np.asarray(t, dtype=float)[..., None, None]
    return B[0] + np.cos(2.0 * t) * B[1] + np.sin(3.0 * t) * B[2]


def both(a, f, y0, t0, dt, n, bound, every):
    ref = rk4_series(f, y0, t0, dt, n, local_error_bound=bound, check_every=every)
    new = rk4_linear(a, y0, t0, dt, n, local_error_bound=bound, check_every=every)
    return ref, new


def assert_close(ref, new):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [0, 1, 144, 150])
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (1e-6, 7), (None, 100), (1e-6, 0)])
@pytest.mark.parametrize("y0", [np.array([1.0, 0.5j]), np.eye(2)], ids=["vector", "matrix"])
def test_time_dependent_generator_matches_reference(n, bound, every, y0):
    t0, dt = -0.3, 1e-2
    times = stage_times(t0, dt, n, bound, every)
    ref, new = both(
        a_of_t(times), lambda t, y: a_of_t(t) @ y, y0, t0, dt, n, bound, every
    )
    assert_close(ref, new)


@pytest.mark.parametrize("n", [0, 1, 144, 150])
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (None, 100)])
@pytest.mark.parametrize(
    "y0", [np.array([1.0, 2.0]) + 1j, np.arange(6.0).reshape(2, 3) - 1j], ids=["vector", "matrix"]
)
def test_constant_generator_matches_reference(n, bound, every, y0):
    # the shared delta applied to a complex vector and to three columns, not
    # only to the identity; 150 steps end in a block of 6 cut short
    ref, new = both(B[1], lambda _t, y: B[1] @ y, y0, 0.0, 1e-2, n, bound, every)
    assert_close(ref, new)


@pytest.mark.parametrize("n", [0, 1, 144, 150])
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (None, 100)])
@pytest.mark.parametrize("y0", [np.array([1.0, 0.5j]), np.eye(2)], ids=["vector", "matrix"])
def test_constant_2x2_generator_matches_reference(n, bound, every, y0):
    # one step delta shared by every step, composed through su2.mul
    ref, new = both(B[0], lambda _t, y: B[0] @ y, y0, 0.0, 1e-2, n, bound, every)
    assert_close(ref, new)


def test_long_series_matches_reference():
    # 1,000 steps: 32 blocks of 31 steps, then 8 steps taken one by one
    t0, dt, n = 0.0, 2e-3, 1000
    times = stage_times(t0, dt, n)
    ref, new = both(a_of_t(times), lambda t, y: a_of_t(t) @ y, np.eye(2), t0, dt, n, 1e-6, 100)
    assert_close(ref, new)


def test_longer_series_with_a_longer_tail_matches_reference():
    # 2,000 steps: 45 blocks of 44 steps, then 20 steps taken one by one
    t0, dt, n = 0.0, 1e-3, 2000
    times = stage_times(t0, dt, n)
    ref, new = both(a_of_t(times), lambda t, y: a_of_t(t) @ y, np.eye(2), t0, dt, n, 1e-6, 100)
    assert_close(ref, new)


def failure_time(call):
    with pytest.raises(StepTooLarge) as err:
        call()
    return re.search(r"at t = (\S+);", str(err.value)).group(1)


@pytest.mark.parametrize("every", [1, 3, 10])
def test_step_too_large_names_the_reference_time(every):
    # the generator grows with t, so the early checks pass and a later one fails
    def grow(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return (1.0 + 5.0 * t**4) * B[0]

    t0, dt, n, bound = 0.0, 0.05, 60, 1e-7
    times = stage_times(t0, dt, n, bound, every)
    t_ref = failure_time(
        lambda: rk4_series(lambda t, y: grow(t) @ y, np.ones(2), t0, dt, n, bound, every)
    )
    t_new = failure_time(lambda: rk4_linear(grow(times), np.ones(2), t0, dt, n, bound, every))
    assert t_new == t_ref
    assert float(t_ref) > t0


def test_stage_rows_and_shapes_are_checked():
    times = stage_times(0.0, 1e-2, 10)
    with pytest.raises(ValueError, match="stage rows"):
        rk4_linear(a_of_t(times[:-1]), np.ones(2), 0.0, 1e-2, 10)
    with pytest.raises(ValueError, match="does not fit"):
        rk4_linear(a_of_t(times), np.ones(3), 0.0, 1e-2, 10)
    with pytest.raises(ValueError, match="does not fit"):
        rk4_linear(np.ones((2, 3)), np.ones(2), 0.0, 1e-2, 10)
    # the steps are 2x2 matrices only, for a constant generator and for a stage stack
    with pytest.raises(ValueError, match="steps must be 2x2"):
        rk4_linear(np.eye(4), np.ones(4), 0.0, 1e-2, 10)
    with pytest.raises(ValueError, match="steps must be 2x2"):
        rk4_linear(np.broadcast_to(np.eye(4), (len(times), 4, 4)), np.eye(4), 0.0, 1e-2, 10)
    with pytest.raises(ValueError, match=r"h_of_t must return .* \(2, 2\) matrix"):
        propagator_series(lambda t: np.eye(4), IntegrationGrid(0.0, 0.1, 1e-2))
