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
Hermitian matrices travel as their real Pauli forms (su2.pauli_form), and
each relation is the product rule of su2.pauli_product in real
arithmetic; a non-Hermitian result such as h, whose anti-Hermitian part is
rounding, is a pair of forms (re, im), the matrix re + i im.
"""

from functools import cached_property

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, SingularDysonMap
from .metric import MetricFlow, SU2Hamiltonian, metric_rhs_form
from .series import TimeSeries
from .su2 import (
    _cross3, _dot, _entrywise, _first_invalid, complex2x2_stack, dagger, det, frobenius_norm, hermitian_sqrt,
    mul, pauli_compose, pauli_decompose, pauli_form, pauli_norm, pauli_product, pauli_sqrt,
    pauli_sqrt_derivative, require_hpd,
)

# Refuse inversion of maps this close to singular.
MIN_DYSON_DET = 1e-12
# The fourth-order stencils of fourth_order_derivative span five samples.
MIN_DERIVATIVE_SAMPLES = 5


class DysonSample:
    """Dyson map eta(t) = sqrt(rho(t)) and its time derivative.

    At one instant t, or over an array of times with (..., 2, 2) stacks;
    indexing a sample over a 1-D array of times gives the sample at one of
    them. A sample holds the matrices ``eta`` and ``eta_dot``, or their real
    Pauli forms ``forms`` (su2.pauli_form), which the Dyson relations below
    read; given one, it forms the other on first use and keeps it. A Dyson
    map and its derivative are Hermitian: the forms of given matrices keep
    their Hermitian parts only.
    """

    def __init__(self, t, eta=None, eta_dot=None, forms=None):
        if forms is None and (eta is None or eta_dot is None):
            raise TypeError("a DysonSample takes eta and eta_dot, or their forms")
        self.t = t
        vars(self).update((k, v) for k, v in (("eta", eta), ("eta_dot", eta_dot), ("forms", forms)) if v is not None)

    def __getitem__(self, i) -> "DysonSample":
        have = vars(self)
        matrices = (have[name][i] if name in have else None for name in ("eta", "eta_dot"))
        forms = tuple(f[:, i] for f in have["forms"]) if "forms" in have else None
        return DysonSample(self.t[i], *matrices, forms)

    @cached_property
    def eta(self) -> np.ndarray:
        return pauli_compose(*self.forms[0])

    @cached_property
    def eta_dot(self) -> np.ndarray:
        return pauli_compose(*self.forms[1])

    @cached_property
    def forms(self) -> tuple:
        """(eta, eta_dot) as real Pauli forms."""
        return pauli_form(self.eta), pauli_form(self.eta_dot)

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


def dyson_forms(h: SU2Hamiltonian, rho, s):
    """Real Pauli forms of eta = sqrt(rho) and of eta_dot along the metric flow of h.

    ``rho`` is the real Pauli form of one metric or a (4, ...) stack and s
    its sqrt(det), as require_hpd returns them. pauli_sqrt roots the form,
    and eta_dot solves eta X + X eta = rho' (pauli_sqrt_derivative) with
    rho' the flow itself, metric_rhs_form(h, rho).
    """
    eta = pauli_sqrt(rho, s)
    return eta, pauli_sqrt_derivative(eta, metric_rhs_form(h, rho))


def dyson_from_metric(metric_series) -> DysonSample:
    """Hermitian Dyson maps eta = sqrt(rho) for a positive-definite metric series.

    One call roots the whole sample stack. For a MetricFlow, require_hpd
    checks the samples on the matrix and decomposes them once, dyson_forms
    gives eta and eta_dot from the flow at every sample, and the sample
    keeps those forms; a bare TimeSeries, whose flow is unknown, is rooted
    by hermitian_sqrt and takes fourth-order differences of eta
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
        if isinstance(metric_series, MetricFlow):
            return DysonSample(series.times, forms=dyson_forms(metric_series.h, *require_hpd(series.samples)))
        eta = hermitian_sqrt(series.samples)
    except (NotHermitian, NotPositiveDefinite) as exc:
        t_i = series.t0 + exc.index * series.dt
        raise NotPositiveDefinite(
            f"metric sample at t = {t_i:.9g} is not a valid metric: {exc}", t=t_i
        ) from exc
    return DysonSample(t=series.times, eta=eta, eta_dot=fourth_order_derivative(eta, series.dt))


def dyson_relation_forms(h_nonhermitian, eta, eta_dot):
    """Pauli forms ((re, im), (re, im)) of h = eta H eta^-1 + i eta_dot eta^-1 and of Htilde = H + i eta^-1 eta_dot.

    eta and eta_dot are real Pauli forms, H a matrix, or a stack that
    broadcasts against them, with complex Pauli coefficients c. By the
    product rule, with d = det eta and eta^-1 = (e0 - e.sigma) / d,

        i eta^-1 eta_dot = i p + q.sigma,    i eta_dot eta^-1 = i p - q.sigma,
        p = (e0 x0 - e.x, e0 x - x0 e) / d,  q = e x x / d,
        eta c.sigma eta^-1 = ((e0^2 + e.e) c - 2 (e.c) e + 2 i e0 e x c).sigma / d,

    so Htilde = c + q.sigma + i p and h = eta c eta^-1 - q.sigma + i p, split
    into real and imaginary forms. h is Hermitian exactly, so its imaginary
    form is the rounding rest.
    """
    c = np.asarray(pauli_decompose(h_nonhermitian))
    (e0, e), (x0, x) = (eta[0], eta[1:]), (eta_dot[0], eta_dot[1:])
    ee = _dot(e, e)
    inv = 1.0 / (e0 * e0 - ee)
    g, f = (e0 * e0 + ee) * inv, 2.0 * inv
    fe0, ec_re, ec_im = f * e0, f * _dot(e, c.real[1:]), f * _dot(e, c.imag[1:])
    h_re, h_im, t_re, t_im = (np.empty((4, *np.broadcast_shapes(inv.shape, c.shape[1:]))) for _ in range(4))
    h_re[0] = t_re[0] = c[0].real
    h_im[0] = t_im[0] = (e0 * x0 - _dot(e, x)) * inv + c[0].imag
    term = np.empty_like(inv)  # each product in place, one temporary for the stack
    crosses = zip(_cross3(e, x), _cross3(e, c.real[1:]), _cross3(e, c.imag[1:]))
    for k, (ek, xk, (q, exc_re, exc_im)) in enumerate(zip(e, x, crosses), 1):
        (hr, hi, p), q = (a[k, ...] for a in (h_re, h_im, t_im)), q * inv
        np.multiply(e0, xk, out=p)
        p -= np.multiply(x0, ek, out=term)
        p *= inv
        np.add(c[k].real, q, out=t_re[k, ...])
        np.multiply(g, c[k].real, out=hr)
        hr -= np.multiply(ec_re, ek, out=term)
        hr -= np.multiply(fe0, exc_im, out=term)
        hr -= q
        np.multiply(g, c[k].imag, out=hi)
        hi -= np.multiply(ec_im, ek, out=term)
        hi += np.multiply(fe0, exc_re, out=term)
        hi += p
        p += c[k].imag
    return (h_re, h_im), (t_re, t_im)


def hermitian_counterpart(h_nonhermitian, sample: DysonSample) -> np.ndarray:
    """Hermitian counterpart h = eta H eta^-1 + i eta_dot eta^-1.

    One matrix for a DysonSample at one instant, the (n, 2, 2) stack for a
    sample over n times: dyson_relation_forms on the sample's ``forms``,
    composed. Hermiticity of the result is a property of a correct
    (eta, eta_dot) pair, not of this formula; the residual is the standard
    cross check, and reads the imaginary form.
    """
    re, im = dyson_relation_forms(h_nonhermitian, *sample.forms)[0]
    return pauli_compose(*re) + 1j * pauli_compose(*im)


def physical_hamiltonian(h_nonhermitian, sample: DysonSample) -> np.ndarray:
    """Physical energy observable Htilde = H + i eta^-1 eta_dot.

    Quasi-Hermitian with respect to rho = eta^2 and equal to
    eta^-1 h eta for the counterpart h above; stacked like it, and
    composed from the same dyson_relation_forms.
    """
    re, im = dyson_relation_forms(h_nonhermitian, *sample.forms)[1]
    return pauli_compose(*re) + 1j * pauli_compose(*im)


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


def quasi_hermiticity_form(h_tilde, rho):
    """quasi_hermiticity_residual of Htilde's pair of real Pauli forms (re, im) and rho's form.

    Htilde^dag rho - rho Htilde = [re, rho] - i {im, rho} = -2i (s0 + s.sigma)
    by the product rule, with s0 + s.sigma the real part of im rho less
    (0, re x rho); its Frobenius norm is twice pauli_norm(s0, s).
    """
    s, _ = pauli_product(h_tilde[1], rho)
    for k, cross in enumerate(_cross3(h_tilde[0][1:], rho[1:]), 1):
        s[k, ...] -= cross
    return 2.0 * pauli_norm(s)
