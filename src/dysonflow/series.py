"""Uniform time grids and sampled time series."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntegrationGrid:
    """Fixed-step grid on [t_start, t_end]; the span must be a whole number of steps."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end) and np.isfinite(self.dt)):
            raise ValueError("grid bounds and step must be finite")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        span = self.t_end - self.t_start
        n = round(span / self.dt)
        if n < 1:
            raise ValueError(f"grid must contain at least one step, got span {span}")
        if abs(n * self.dt - span) > 1e-9 * max(self.dt, abs(span)):
            raise ValueError(
                f"(t_end - t_start)/dt = {span / self.dt:.12g} is not an integer within rounding"
            )

    @property
    def n_steps(self) -> int:
        return round((self.t_end - self.t_start) / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly spaced samples: ``samples[i]`` is the payload at t0 + i*dt."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples))
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if len(self.samples) < 1:
            raise ValueError("a time series needs at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))
