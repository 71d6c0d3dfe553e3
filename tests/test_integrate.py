"""The linear RK4 scan against the generic step-by-step RK4 reference."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dysonflow
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


# every step count up to 9, and each side of 2^5 and 2^10: odd and even pair
# counts at every level of the pairwise scan, down to a single step
N_STEPS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 144, 150, 1023, 1025]


def assert_close(ref, new):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", N_STEPS)
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (1e-6, 7), (None, 100), (1e-6, 0)])
@pytest.mark.parametrize("y0", [np.array([1.0, 0.5j]), np.eye(2)], ids=["vector", "matrix"])
def test_time_dependent_generator_matches_reference(n, bound, every, y0):
    t0, dt = -0.3, 1e-2
    times = stage_times(t0, dt, n, bound, every)
    ref, new = both(
        a_of_t(times), lambda t, y: a_of_t(t) @ y, y0, t0, dt, n, bound, every
    )
    assert_close(ref, new)


@pytest.mark.parametrize("n", N_STEPS)
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (None, 100)])
@pytest.mark.parametrize(
    "y0", [np.array([1.0, 2.0]) + 1j, np.arange(6.0).reshape(2, 3) - 1j], ids=["vector", "matrix"]
)
def test_constant_generator_matches_reference(n, bound, every, y0):
    # the constant step applied to a complex vector and to three columns, not
    # only to the identity
    ref, new = both(B[1], lambda _t, y: B[1] @ y, y0, 0.0, 1e-2, n, bound, every)
    assert_close(ref, new)


@pytest.mark.parametrize("n", N_STEPS)
@pytest.mark.parametrize("bound, every", [(1e-6, 100), (None, 100)])
@pytest.mark.parametrize("y0", [np.array([1.0, 0.5j]), np.eye(2)], ids=["vector", "matrix"])
def test_constant_2x2_generator_matches_reference(n, bound, every, y0):
    # one step delta broadcast over every step, composed through su2.mul
    ref, new = both(B[0], lambda _t, y: B[0] @ y, y0, 0.0, 1e-2, n, bound, every)
    assert_close(ref, new)


def test_long_series_matches_reference():
    # 1,000 steps: pair counts 500, 250, 125, 62, 31, .., odd ones from the third level on
    t0, dt, n = 0.0, 2e-3, 1000
    times = stage_times(t0, dt, n)
    ref, new = both(a_of_t(times), lambda t, y: a_of_t(t) @ y, np.eye(2), t0, dt, n, 1e-6, 100)
    assert_close(ref, new)


def test_longer_series_with_a_longer_tail_matches_reference():
    # 2,000 steps: one level of the pairwise scan more than 1,000
    t0, dt, n = 0.0, 1e-3, 2000
    times = stage_times(t0, dt, n)
    ref, new = both(a_of_t(times), lambda t, y: a_of_t(t) @ y, np.eye(2), t0, dt, n, 1e-6, 100)
    assert_close(ref, new)


def test_constant_generator_gives_the_bits_of_its_stage_stack():
    # a constant generator goes through the same scan as any stage stack
    n = 150
    stages = np.broadcast_to(B[1], (len(stage_times(0.0, 1e-2, n)), 2, 2))
    for y0 in (np.eye(2), np.array([1.0, 0.5j])):
        const = rk4_linear(B[1], y0, 0.0, 1e-2, n)
        assert np.array_equal(const, rk4_linear(stages, y0, 0.0, 1e-2, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4001, 8000])
def test_a_broadcast_step_gives_the_bits_of_its_materialised_stack(n):
    # a constant generator's pair delta at each level of the scan is formed
    # once and broadcast; a stage stack that holds the generator in every
    # row forms every pair, and the two must agree bit for bit, zero signs too
    stages = np.ascontiguousarray(np.broadcast_to(B[1], (len(stage_times(0.0, 1e-3, n)), 2, 2)))
    for y0 in (np.eye(2), np.array([1.0, 0.5j])):
        const = rk4_linear(B[1], y0, 0.0, 1e-3, n)
        full = rk4_linear(stages, y0, 0.0, 1e-3, n)
        assert np.array_equal(const, full)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(const)), np.signbit(part(full)))


def scan_digest():
    """sha256 of rk4_linear's series for a time-dependent and a constant generator."""
    t0, dt, n = 0.0, 2e-3, 1000
    times = stage_times(t0, dt, n)
    digest = hashlib.sha256()
    for a in (a_of_t(times), B[1]):
        for y0 in (np.eye(2), np.array([1.0, 0.5j])):
            digest.update(np.ascontiguousarray(rk4_linear(a, y0, t0, dt, n)).tobytes())
    return digest.hexdigest()


def test_scan_bits_do_not_depend_on_the_blas_core():
    # the scan makes no BLAS call: OpenBLAS's Haswell kernels, which round
    # 2x2 zgemm differently from its SkylakeX ones, give the same bits
    paths = [str(Path(dysonflow.__file__).parents[1]), str(Path(__file__).parent)]
    code = f"import sys; sys.path[:0] = {paths!r}; import test_integrate; print(test_integrate.scan_digest())"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == scan_digest()


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


@pytest.mark.parametrize("every", [1, 10])
def test_an_overflowing_step_is_too_large(every):
    # from t = 1 on the generator is 1e200 times larger, its steps overflow
    # and the local error estimate is NaN, which compares False with any
    # bound: it raises as too large, at the same step in both integrators
    # (and at step 0 for a constant one), instead of integrating on
    def huge(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return np.where(t > 1.0, 1e200, 1.0) * B[0]

    t0, dt, n, bound = 0.0, 0.05, 60, 1e-3
    times = stage_times(t0, dt, n, bound, every)
    calls = [
        lambda: rk4_series(lambda t, y: huge(t) @ y, np.ones(2), t0, dt, n, bound, every),
        lambda: rk4_linear(huge(times), np.ones(2), t0, dt, n, bound, every),
        lambda: rk4_linear(1e200 * B[0], np.ones(2), t0, dt, n, bound, every),
    ]
    messages = []
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge) as err:
            call()
        messages.append(str(err.value))
    expected = "local error estimate nan exceeds 1.000e-03 at t = {}; reduce dt"
    assert messages == [expected.format(1), expected.format(1), expected.format(0)]


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
