"""Metric operators for static SU(2)-class non-Hermitian Hamiltonians.

A Hamiltonian H = (kappa0 + i*lambda0)/2 I + sum_j (kappa_j + i*lambda_j)/2 sigma_j
with the Hermitian metric ansatz rho(t) = alpha(t) I + beta(t).sigma obeys
the flow

    d/dt rho = -i (H^dag rho - rho H),

which in coefficients reads alpha' = -alpha*lambda0 - beta.l and
beta' = k x beta - lambda0*beta - alpha*l, writing k and l for the kappa and
lambda vectors. This module provides the stationary solution, the
closed-form oscillatory family available when k.l = 0, and direct numeric
integration of the flow. Positivity (det rho = alpha^2 - |beta|^2 > 0) is
monitored and reported, never silently enforced. For a static H the exact
flow is the congruence rho(t) = A rho(0) A^dag with A = exp(-i H^dag t), so
a positive-definite start stays positive definite for all t, at and beyond
the exceptional point too; a lost positivity flags integrator error.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import rk4_linear
from .errors import PositivityViolation, UnsupportedHamiltonian
from .series import IntegrationGrid, TimeSeries
from .su2 import (
    IDENTITY,
    PauliCoefficients,
    complex2x2,
    complex2x2_stack,
    dagger,
    det,
    mul,
    pauli_compose,
    require_hpd,
)

# The closed forms require kappa.lambda = 0 exactly; checked absolutely.
ORTHOGONALITY_TOL = 1e-12


def _as_vec3(v, name):
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class SU2Hamiltonian:
    """Coefficient form (kappa0 + i*lambda0)/2 on I, (kappa_j + i*lambda_j)/2 on sigma_j."""

    kappa0: float
    lambda0: float
    kappa_vec: np.ndarray
    lambda_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa0", float(self.kappa0))
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "kappa_vec", _as_vec3(self.kappa_vec, "kappa_vec"))
        object.__setattr__(self, "lambda_vec", _as_vec3(self.lambda_vec, "lambda_vec"))

    def matrix(self) -> np.ndarray:
        vec = 0.5 * (self.kappa_vec + 1j * self.lambda_vec)
        return pauli_compose(PauliCoefficients(0.5 * (self.kappa0 + 1j * self.lambda0), *vec))


@dataclass(frozen=True)
class MetricState:
    """Metric coefficients at one instant: rho = alpha I + beta.sigma.

    The composed matrix is Hermitian by construction. Validity as an inner
    product additionally needs det rho = alpha^2 - |beta|^2 > 0, which is
    deliberately not enforced here; query positivity_margin.
    """

    alpha: float
    beta_vec: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta_vec", _as_vec3(self.beta_vec, "beta_vec"))
        object.__setattr__(self, "t", float(self.t))

    def matrix(self) -> np.ndarray:
        return pauli_compose(PauliCoefficients(self.alpha, *self.beta_vec))


@dataclass(frozen=True)
class ZetaConstants:
    """Integration constants of the closed-form oscillatory metric family."""

    c1: float
    c2: float
    c3: float
    c4: float


def positivity_margin(state: MetricState) -> float:
    """det rho = alpha^2 - beta.beta; positive exactly when the metric is valid."""
    return float(state.alpha**2 - state.beta_vec @ state.beta_vec)


def _require_flow_solvable(h: SU2Hamiltonian, need_real_frequency: bool):
    if abs(h.lambda0) > ORTHOGONALITY_TOL:
        raise UnsupportedHamiltonian(
            f"closed forms require lambda0 = 0, got {h.lambda0:.6g}"
        )
    k2 = float(h.kappa_vec @ h.kappa_vec)
    l2 = float(h.lambda_vec @ h.lambda_vec)
    if k2 <= 0.0:
        raise UnsupportedHamiltonian("kappa_vec must be nonzero")
    if abs(float(h.kappa_vec @ h.lambda_vec)) > ORTHOGONALITY_TOL:
        raise UnsupportedHamiltonian(
            "closed forms require kappa_vec.lambda_vec = 0; "
            "use integrate_metric for the general case"
        )
    if need_real_frequency and k2 <= l2:
        raise UnsupportedHamiltonian(
            f"|kappa| > |lambda| required for a real frequency, got |k|^2 = {k2:.6g}, "
            f"|l|^2 = {l2:.6g}"
        )
    return k2, l2


def static_metric(h: SU2Hamiltonian, alpha: float, nu: float) -> MetricState:
    """Stationary metric beta = (alpha/|k|^2) l x k + nu k for lambda0 = 0, k.l = 0.

    The returned coefficients make H^dag rho - rho H vanish identically.
    Raises UnsupportedHamiltonian when no stationary solution of this form
    exists and PositivityViolation when det rho <= 0.
    """
    k2, _ = _require_flow_solvable(h, need_real_frequency=False)
    beta = (alpha / k2) * np.cross(h.lambda_vec, h.kappa_vec) + nu * h.kappa_vec
    state = MetricState(alpha=alpha, beta_vec=beta, t=0.0)
    margin = positivity_margin(state)
    if margin <= 0.0:
        raise PositivityViolation(f"det rho = {margin:.6g} is not positive")
    return state


def zeta_coefficients(t, h: SU2Hamiltonian, c: ZetaConstants):
    """Coefficients (alpha, beta) of zeta_metric at scalar or array ``t``.

    alpha has the shape of ``t`` and beta that shape plus a trailing 3.
    """
    k2, l2 = _require_flow_solvable(h, need_real_frequency=True)
    phi = math.sqrt(k2 - l2)
    t = np.asarray(t, dtype=float)
    s, co = np.sin(phi * t), np.cos(phi * t)
    z1 = c.c4
    z2 = c.c1 * s + c.c2 * co
    z3 = -(c.c1 / phi) * co + (c.c2 / phi) * s + c.c3
    alpha = (c.c1 * k2 / phi - c.c1 * phi) * co + (c.c2 * phi - c.c2 * k2 / phi) * s - c.c3 * k2
    beta = (
        z1 * h.kappa_vec
        + z2[..., None] * h.lambda_vec
        + z3[..., None] * np.cross(h.kappa_vec, h.lambda_vec)
    )
    return alpha, beta


def zeta_metric(t: float, h: SU2Hamiltonian, c: ZetaConstants) -> MetricState:
    """Closed-form oscillatory metric for lambda0 = 0 and k.l = 0.

    With phi = sqrt(|k|^2 - |l|^2), the expansion
    beta(t) = z1 k + z2 l + z3 k x l solves the metric flow for

        z1 = c4,
        z2 = c1 sin(phi t) + c2 cos(phi t),
        z3 = -(c1/phi) cos(phi t) + (c2/phi) sin(phi t) + c3,
        alpha = (c1 |k|^2/phi - c1 phi) cos(phi t)
              + (c2 phi - c2 |k|^2/phi) sin(phi t) - c3 |k|^2.

    c1 = c2 = 0 freezes the time dependence and reproduces static_metric
    with alpha = -c3 |k|^2, nu = c4. det rho is conserved along the family:
    det = c3^2 |k|^2 phi^2 - c4^2 |k|^2 - |l|^2 (c1^2 + c2^2).
    zeta_coefficients evaluates the same family over an array of times.
    """
    alpha, beta = zeta_coefficients(t, h, c)
    return MetricState(alpha=alpha, beta_vec=beta, t=t)


def metric_rhs(h: SU2Hamiltonian, rho) -> np.ndarray:
    """Flow right side -i (H^dag rho - rho H); Hermitian whenever rho is.

    Accepts one (2, 2) metric or a (..., 2, 2) stack.
    """
    rho = complex2x2_stack(rho)
    hm = h.matrix()
    return -1j * (mul(dagger(hm), rho) - mul(rho, hm))


@dataclass(frozen=True)
class MetricFlow:
    """Integrated metric samples plus the first time positivity failed, if any."""

    series: TimeSeries
    positivity_lost_at: float | None = None


def integrate_metric(
    h: SU2Hamiltonian,
    rho0,
    grid: IntegrationGrid,
    local_error_bound: float | None = 1e-6,
) -> MetricFlow:
    """Integrate the metric flow from a Hermitian positive-definite rho0 with RK4.

    A rho0 that is not raises NotHermitian or NotPositiveDefinite, as in
    su2.require_hpd. Each sample is tested for det > 0 afterwards and the
    first failure time is recorded on the result as positivity_lost_at;
    for a static H that flags integrator error (see the module docstring).
    StepTooLarge propagates from the integrator when the error estimate of
    a checked step (step 0 and every 100th after it) exceeds
    ``local_error_bound``; None turns the checks off.
    """
    rho0 = complex2x2(rho0)
    require_hpd(rho0)

    # the flow on row-major vec(rho): vec(A rho B) = kron(A, B^T) vec(rho)
    hm = h.matrix()
    samples = rk4_linear(
        -1j * (np.kron(dagger(hm), IDENTITY) - np.kron(IDENTITY, hm.T)),
        rho0.ravel(),
        grid.t_start,
        grid.dt,
        grid.n_steps,
        local_error_bound=local_error_bound,
    ).reshape(-1, 2, 2)
    bad = np.nonzero(det(samples).real <= 0.0)[0]
    return MetricFlow(
        series=TimeSeries(t0=grid.t_start, dt=grid.dt, samples=samples),
        positivity_lost_at=float(grid.t_start + grid.dt * bad[0]) if bad.size else None,
    )
