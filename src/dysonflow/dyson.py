"""Dyson maps from metric series and the time-dependent Dyson relation.

The Hermitian Dyson map is the positive square root eta(t) = sqrt(rho(t)).
It carries a static non-Hermitian H to its Hermitian counterpart

    h(t) = eta H eta^-1 + i (d/dt eta) eta^-1,

while the quasi-Hermitian physical energy observable of the non-Hermitian
picture is Htilde(t) = H + i eta^-1 (d/dt eta) = eta^-1 h eta. Only the
Hermitian branch of the square root is implemented; the unitary gauge
family eta' = V eta with V unitary is out of scope.

eta_dot of an integrated metric comes from its flow; finite differences
serve only a series whose flow is unknown. The relations below take one
(2, 2) matrix or a (..., 2, 2) stack, and a DysonSample at one time or
over a whole series, so a series goes through each of them in one call.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, SingularDysonMap
from .metric import MetricFlow, metric_rhs
from .series import TimeSeries
from .su2 import (
    _entrywise, _first_invalid, complex2x2_stack, dagger, det, frobenius_norm, hermitian_sqrt,
    hermitian_sqrt_derivative, mul,
)

# Refuse inversion of maps this close to singular.
MIN_DYSON_DET = 1e-12
# The fourth-order stencils of fourth_order_derivative span five samples.
MIN_DERIVATIVE_SAMPLES = 5


@dataclass(frozen=True)
class DysonSample:
    """Dyson map eta(t) = sqrt(rho(t)) and its time derivative.

    At one instant t, or over an array of times with (..., 2, 2) stacks;
    indexing a sample over a 1-D array of times gives the sample at one of
    them.
    """

    t: float | np.ndarray
    eta: np.ndarray
    eta_dot: np.ndarray

    def __getitem__(self, i) -> "DysonSample":
        return DysonSample(t=self.t[i], eta=self.eta[i], eta_dot=self.eta_dot[i])

    @cached_property
    def eta_inverse(self) -> np.ndarray:
        """eta^-1 by invert_dyson_map, formed on first use and then kept."""
        return invert_dyson_map(self.eta)


def invert_dyson_map(eta) -> np.ndarray:
    """Closed-form 2x2 inverse via adjugate, of one matrix or a (..., 2, 2) stack.

    Refuses |det| < 1e-12, naming the first such matrix of a stack.
    """
    eta = complex2x2_stack(eta)
    d = np.asarray(det(eta))
    small = np.abs(d) < MIN_DYSON_DET
    if np.any(small):
        _, where = _first_invalid(small)
        raise SingularDysonMap(f"{where}|det eta| = {np.abs(d)[small][0]:.3e} below {MIN_DYSON_DET:.1e}")
    # the adjugate swaps the diagonal entries and negates the off-diagonal ones
    return _entrywise(d.shape, lambda i, j: np.divide(eta[..., 1 - i, 1 - j] if i == j else -eta[..., i, j], d))


def fourth_order_derivative(samples: np.ndarray, dt: float) -> np.ndarray:
    """First time derivative of a uniformly sampled array stack, O(dt^4).

    Five-point central stencil in the interior, one-sided stencils of the
    same order at the two points on each edge. Needs at least
    MIN_DERIVATIVE_SAMPLES = 5 samples.
    """
    samples = np.asarray(samples)
    n = len(samples)
    if n < MIN_DERIVATIVE_SAMPLES:
        raise ValueError(
            f"fourth-order differentiation needs >= {MIN_DERIVATIVE_SAMPLES} samples, got {n}"
        )
    d = np.empty_like(samples, dtype=complex)
    f = samples
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * dt)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * dt)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * dt)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * dt)
    return d


def dyson_from_metric(metric_series) -> DysonSample:
    """Hermitian Dyson maps eta = sqrt(rho) for a positive-definite metric series.

    One closed-form hermitian_sqrt call roots the whole sample stack. For a
    MetricFlow, eta_dot solves eta X + X eta = rho' (hermitian_sqrt_derivative)
    with rho' = metric_rhs(flow.h, rho), the flow itself, at every sample; a
    bare TimeSeries, whose flow is unknown, takes fourth-order differences
    (fourth_order_derivative). Returns one DysonSample over the series'
    times. Raises NotPositiveDefinite (carrying the sample time) on the
    first invalid sample.
    """
    series = metric_series.series if isinstance(metric_series, MetricFlow) else metric_series
    if not isinstance(series, TimeSeries):
        raise TypeError("expected a TimeSeries or MetricFlow of metric samples")
    if series.samples.shape[1:] != (2, 2):
        raise ValueError(f"expected (n, 2, 2) metric samples, got {series.samples.shape}")
    try:
        eta = hermitian_sqrt(series.samples)
    except (NotHermitian, NotPositiveDefinite) as exc:
        t_i = series.t0 + exc.index * series.dt
        raise NotPositiveDefinite(
            f"metric sample at t = {t_i:.9g} is not a valid metric: {exc}", t=t_i
        ) from exc
    if isinstance(metric_series, MetricFlow):
        eta_dot = hermitian_sqrt_derivative(eta, metric_rhs(metric_series.h, series.samples))
    else:
        eta_dot = fourth_order_derivative(eta, series.dt)
    return DysonSample(t=series.times, eta=eta, eta_dot=eta_dot)


def hermitian_counterpart(h_nonhermitian, sample: DysonSample) -> np.ndarray:
    """Hermitian counterpart h = eta H eta^-1 + i eta_dot eta^-1.

    One matrix for a DysonSample at one instant, the (n, 2, 2) stack for a
    sample over n times. Hermiticity of the result is a property
    of a correct (eta, eta_dot) pair, not of this formula; the residual is
    the standard cross check. eta^-1 is the sample's ``eta_inverse``, so
    physical_hamiltonian on the same sample does not invert eta again.
    """
    h_nonhermitian = complex2x2_stack(h_nonhermitian)
    inv = sample.eta_inverse
    return mul(mul(sample.eta, h_nonhermitian), inv) + 1j * mul(sample.eta_dot, inv)


def physical_hamiltonian(h_nonhermitian, sample: DysonSample) -> np.ndarray:
    """Physical energy observable Htilde = H + i eta^-1 eta_dot.

    Quasi-Hermitian with respect to rho = eta^2 and equal to
    eta^-1 h eta for the counterpart h above; stacked like it, and
    sharing its ``eta_inverse``.
    """
    h_nonhermitian = complex2x2_stack(h_nonhermitian)
    inv = sample.eta_inverse
    return h_nonhermitian + 1j * mul(inv, sample.eta_dot)


def quasi_hermiticity_residual(h_tilde, rho):
    """Frobenius norm of Htilde^dag rho - rho Htilde.

    Zero exactly when Htilde is quasi-Hermitian with respect to rho, the
    condition for real expectation values in the rho-weighted inner product.
    A float for one pair of matrices, an array of residuals when either
    argument is a (..., 2, 2) stack.
    """
    h_tilde = complex2x2_stack(h_tilde)
    rho = complex2x2_stack(rho)
    return frobenius_norm(mul(dagger(h_tilde), rho) - mul(rho, h_tilde))[()]
