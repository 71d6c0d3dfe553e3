"""Metric operators for static SU(2)-class non-Hermitian Hamiltonians.

A Hamiltonian H = (kappa0 + i*lambda0)/2 I + sum_j (kappa_j + i*lambda_j)/2 sigma_j
with the Hermitian metric ansatz rho(t) = alpha(t) I + beta(t).sigma obeys
the flow

    d/dt rho = -i (H^dag rho - rho H),

which in coefficients reads alpha' = -alpha*lambda0 - beta.l and
beta' = k x beta - lambda0*beta - alpha*l, writing k and l for the kappa and
lambda vectors. This module provides the closed-form oscillatory family
available when k.l = 0, stationary for c1 = c2 = 0, and direct numeric
integration of the flow. For a static H the flow is solved by the
congruence rho(t) = A rho(0) A^dag with A' = -i H^dag A, A(0) = I, and the
integration takes RK4 steps of A, not of rho. Positivity (det rho =
alpha^2 - |beta|^2 > 0) is required of rho(0); that of the samples is
left to their users (su2.require_hpd in the Dyson map), never enforced.
In exact arithmetic det rho(t) = |det A|^2 det rho(0) > 0, at and beyond
the exceptional point too, since A is invertible. A computed det <= 0
therefore comes only from rounding a start within rounding of singular,
such as det rho(0) = 2^-52.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import rk4_linear
from .errors import UnsupportedHamiltonian
from .series import IntegrationGrid, TimeSeries
from .su2 import (
    IDENTITY,
    _cross3,
    _dot,
    complex2x2,
    complex2x2_stack,
    dagger,
    mul,
    pauli_compose,
    pauli_det,
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
        return pauli_compose(0.5 * (self.kappa0 + 1j * self.lambda0), *vec)


@dataclass(frozen=True)
class MetricState:
    """Metric coefficients rho = alpha I + beta.sigma, at one time or over an array of times.

    alpha and t are floats, or arrays of the times' shape; beta_vec has that
    shape plus a trailing axis of 3. The composed matrix is Hermitian by
    construction. Validity as an inner product additionally needs
    det rho = alpha^2 - |beta|^2 > 0, which is deliberately not enforced
    here; query positivity_margin.
    """

    alpha: float | np.ndarray
    beta_vec: np.ndarray
    t: float | np.ndarray = 0.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta_vec, dtype=float)
        if beta.shape != (*alpha.shape, 3):
            raise ValueError(f"beta_vec must have shape {(*alpha.shape, 3)}, got {beta.shape}")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("metric coefficients must be finite")
        object.__setattr__(self, "alpha", alpha[()])
        object.__setattr__(self, "beta_vec", beta)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float)[()])

    def form(self) -> np.ndarray:
        """rho's real Pauli form (alpha, beta), a (4, ...) array over the times (su2.pauli_form)."""
        return np.concatenate(([self.alpha], np.moveaxis(self.beta_vec, -1, 0)))

    def matrix(self) -> np.ndarray:
        """rho, one (2, 2) matrix or the (..., 2, 2) stack over the times."""
        return pauli_compose(self.alpha, *np.moveaxis(self.beta_vec, -1, 0))


@dataclass(frozen=True)
class ZetaConstants:
    """Integration constants of the closed-form oscillatory metric family."""

    c1: float
    c2: float
    c3: float
    c4: float


def positivity_margin(state: MetricState):
    """det rho = alpha^2 - beta.beta at each time; positive exactly when the metric is valid."""
    return pauli_det(state.form())


def _require_flow_solvable(h: SU2Hamiltonian):
    """|k|^2 and |l|^2, both finite, of an H with lambda0 = 0, k.l = 0 and |k| > |l|; refuses any other."""
    if abs(h.lambda0) > ORTHOGONALITY_TOL:
        raise UnsupportedHamiltonian(
            f"closed forms require lambda0 = 0, got {h.lambda0:.6g}"
        )
    k, l = h.kappa_vec.tolist(), h.lambda_vec.tolist()  # Python floats overflow to inf with no numpy warning
    k2, l2 = _dot(k, k), _dot(l, l)
    if k2 <= 0.0:
        raise UnsupportedHamiltonian("kappa_vec must be nonzero")
    if not (math.isfinite(k2) and math.isfinite(l2)):
        raise UnsupportedHamiltonian(
            f"|kappa|^2 and |lambda|^2 must be finite, got |k|^2 = {k2:.6g}, |l|^2 = {l2:.6g}"
        )
    if abs(_dot(k, l)) > ORTHOGONALITY_TOL:
        raise UnsupportedHamiltonian(
            "closed forms require kappa_vec.lambda_vec = 0; "
            "use integrate_metric for the general case"
        )
    if k2 <= l2:
        raise UnsupportedHamiltonian(
            f"|kappa| > |lambda| required for a real frequency, got |k|^2 = {k2:.6g}, "
            f"|l|^2 = {l2:.6g}"
        )
    return k2, l2


def zeta_metric(t, h: SU2Hamiltonian, c: ZetaConstants) -> MetricState:
    """Closed-form oscillatory metric for lambda0 = 0 and k.l = 0, at scalar or array ``t``.

    With phi = sqrt(|k|^2 - |l|^2), the expansion
    beta(t) = z1 k + z2 l + z3 k x l solves the metric flow for

        z1 = c4,
        z2 = c1 sin(phi t) + c2 cos(phi t),
        z3 = -(c1/phi) cos(phi t) + (c2/phi) sin(phi t) + c3,
        alpha = (c1 |k|^2/phi - c1 phi) cos(phi t)
              + (c2 phi - c2 |k|^2/phi) sin(phi t) - c3 |k|^2.

    c1 = c2 = 0 freezes the time dependence: those members are the
    stationary metrics alpha = -c3 |k|^2, beta = (alpha/|k|^2) l x k + c4 k,
    for which H^dag rho - rho H vanishes. det rho is conserved along the
    family: det = c3^2 |k|^2 phi^2 - c4^2 |k|^2 - |l|^2 (c1^2 + c2^2). An
    array of times gives one MetricState over all of them, each time
    bit-identical to its scalar evaluation.
    """
    k2, l2 = _require_flow_solvable(h)
    phi = math.sqrt(k2 - l2)
    t = np.asarray(t, dtype=float)
    s, co = np.sin(phi * t), np.cos(phi * t)
    z1 = c.c4
    z2 = c.c1 * s + c.c2 * co
    z3 = -(c.c1 / phi) * co + (c.c2 / phi) * s + c.c3
    alpha = (c.c1 * k2 / phi - c.c1 * phi) * co + (c.c2 * phi - c.c2 * k2 / phi) * s - c.c3 * k2
    # one contiguous array per component of beta, each summed in the order above
    kxl = _cross3(h.kappa_vec, h.lambda_vec)
    beta = [z1 * k + z2 * l + z3 * x for k, l, x in zip(h.kappa_vec, h.lambda_vec, kxl)]
    return MetricState(alpha=alpha, beta_vec=np.moveaxis(np.stack(beta), 0, -1), t=t)


def zeta_metric_dot(t, h: SU2Hamiltonian, c: ZetaConstants) -> MetricState:
    """d/dt of zeta_metric in closed form: the coefficients alpha' and beta' at scalar or array ``t``.

    In zeta_metric's notation z1' = 0, z3' = z2, z2' = phi (c1 cos(phi t) -
    c2 sin(phi t)) and alpha' = -|l|^2 z2, so beta' = z2' l + z2 k x l.
    Stacked like zeta_metric, each time bit-identical to its scalar
    evaluation.
    """
    k2, l2 = _require_flow_solvable(h)
    phi = math.sqrt(k2 - l2)
    t = np.asarray(t, dtype=float)
    s, co = np.sin(phi * t), np.cos(phi * t)
    z2 = c.c1 * s + c.c2 * co
    z2_dot = phi * (c.c1 * co - c.c2 * s)
    beta = [z2_dot * l + z2 * x for l, x in zip(h.lambda_vec, _cross3(h.kappa_vec, h.lambda_vec))]
    return MetricState(alpha=-l2 * z2, beta_vec=np.moveaxis(np.stack(beta), 0, -1), t=t)


def metric_rhs(h: SU2Hamiltonian, rho) -> np.ndarray:
    """Flow right side -i (H^dag rho - rho H); Hermitian whenever rho is.

    Accepts one (2, 2) metric or a (..., 2, 2) stack.
    """
    rho = complex2x2_stack(rho)
    hm = h.matrix()
    return -1j * (mul(dagger(hm), rho) - mul(rho, hm))


def metric_rhs_form(h: SU2Hamiltonian, rho) -> np.ndarray:
    """metric_rhs in real Pauli forms: alpha' = -alpha lambda0 - beta.l, beta' = k x beta - lambda0 beta - alpha l.

    ``rho`` is the real Pauli form (alpha, beta) of one metric or a (4, ...)
    stack of them (su2.pauli_form); the result is the form of rho', with no
    matrix product.
    """
    alpha, beta = rho[0], rho[1:]
    k, l, lambda0 = h.kappa_vec, h.lambda_vec, h.lambda0
    out, term = np.empty(np.shape(rho)), np.empty(np.shape(alpha))  # each product in place, one temporary
    np.multiply(-alpha, lambda0, out=out[0, ...])
    out[0, ...] -= _dot(beta, l)
    for i, (c, b, x) in enumerate(zip(_cross3(k, beta), beta, l), 1):
        np.subtract(c, np.multiply(lambda0, b, out=term), out=out[i, ...])
        out[i, ...] -= np.multiply(alpha, x, out=term)
    return out


@dataclass(frozen=True)
class MetricFlow:
    """Integrated metric samples and the H whose flow they solve."""

    series: TimeSeries
    h: SU2Hamiltonian


def integrate_metric(
    h: SU2Hamiltonian,
    rho0,
    grid: IntegrationGrid,
    local_error_bound: float | None = 1e-6,
) -> MetricFlow:
    """Integrate the metric flow from a Hermitian positive-definite rho0 with RK4.

    A rho0 that is not raises NotHermitian or NotPositiveDefinite, as in
    su2.require_hpd. RK4 integrates A' = -i H^dag A from A = I, and each
    sample is the congruence A rho0 A^dag (see the module docstring), as
    computed: no sample is tested for positivity here. StepTooLarge
    propagates from the integrator when the local error estimate of A's
    step at a checked step (step 0 and every 100th after it) exceeds
    ``local_error_bound``; None turns the checks off.
    """
    return integrate_metric_from(h, rho0, IDENTITY, grid, local_error_bound)[0]


def integrate_metric_from(
    h: SU2Hamiltonian,
    rho0,
    a0,
    grid: IntegrationGrid,
    local_error_bound: float | None = 1e-6,
):
    """integrate_metric over a grid on which A starts at ``a0``; returns the flow and A's last value.

    The samples are A rho0 A^dag, with A' = -i H^dag A integrated from a0
    at grid.t_start. A grid that starts where this one ends continues the
    same flow from the returned A, so a long window runs as a chain of
    short grids; the local error checks see the same A as on one grid.
    a0 = I is integrate_metric.
    """
    rho0 = complex2x2(rho0)
    require_hpd(rho0)
    a = rk4_linear(
        -1j * dagger(h.matrix()), a0, grid.t_start, grid.dt, grid.n_steps, local_error_bound
    )
    samples = mul(mul(a, rho0), dagger(a))
    flow = MetricFlow(series=TimeSeries(t0=grid.t_start, dt=grid.dt, samples=samples), h=h)
    return flow, a[-1].copy()
