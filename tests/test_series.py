"""Grid and time-series plumbing: step divisibility, indexing, validation."""

import numpy as np
import pytest

from dysonflow import IntegrationGrid, TimeSeries


def test_grid_accepts_whole_step_spans():
    grid = IntegrationGrid(0.0, 1.0, 1e-3)
    assert grid.n_steps == 1000
    assert len(grid.times) == 1001
    assert grid.times[0] == 0.0
    assert abs(grid.times[-1] - 1.0) < 1e-12
    # negative start, snapped span
    grid = IntegrationGrid(-1.8137993642342178, -1.8137993642342178 + 14510 * 1e-3, 1e-3)
    assert grid.n_steps == 14510


def test_grid_rejects_fractional_spans():
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0005, 1e-2)
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 0.0, 1e-2)
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, 1.0, -1e-2)
    with pytest.raises(ValueError):
        IntegrationGrid(0.0, float("inf"), 1e-2)


def test_a_cut_keeps_its_steps_and_is_not_checked_again():
    # far from t = 0 the last step of this grid, as a grid of its own, spans
    # 3e-5 give or take the float spacing at 1000, 1.1e-13: more than the
    # 1e-9 dt the check allows, which holds for grids passed in
    grid = IntegrationGrid(1000.0, 1000.0 + 8001 * 3e-5, 3e-5)
    for lo, hi in ((0, 8000), (8000, 8001)):
        part = grid.cut(lo, hi)
        assert (part.t_start, part.dt, part.n_steps) == (grid.t_start + grid.dt * lo, grid.dt, hi - lo)
        assert np.array_equal(part.times, part.t_start + part.dt * np.arange(hi - lo + 1))
    with pytest.raises(ValueError, match="not an integer within rounding"):
        IntegrationGrid(part.t_start, part.t_end, part.dt)


def test_time_series_indexing():
    samples = np.arange(12).reshape(4, 3)
    series = TimeSeries(t0=2.0, dt=0.5, samples=samples)
    assert len(series) == 4
    assert np.array_equal(series[1], [3, 4, 5])
    assert np.allclose(series.times, [2.0, 2.5, 3.0, 3.5])


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=0.1, samples=np.empty((0, 2)))
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=-0.1, samples=np.zeros((3, 2)))
