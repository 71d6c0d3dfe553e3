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
