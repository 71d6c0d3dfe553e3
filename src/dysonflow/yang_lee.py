"""Closed-form solutions for the one-site lattice Yang-Lee model.

The non-Hermitian one-site Hamiltonian

    H1 = -1/2 [omega I + sigma_z + i gamma sigma_x],    0 < gamma < 1,

has real eigenvalues E_pm = (-omega +- phi)/2 with level splitting
phi = sqrt(1 - gamma^2), the Rabi frequency of everything that follows.
Its oscillatory metric

    rho(t) = [1/gamma + gamma sin(phi t)] I
           + phi cos(phi t) sigma_x - [1 + sin(phi t)] sigma_y

and Hermitian Dyson map eta(t) = sqrt(rho(t)) carry H1 onto the Hermitian,
explicitly time-dependent Rabi-type Hamiltonian

    h(t) = -1/2 [omega I + 2 phi^2 / (2 + gamma^2 sin(phi t) - gamma^2) sigma_z],

whose propagator, orthonormal basis and energy expectations all exist in
closed form. Everything here doubles as an oracle for the numeric paths in
the metric, dyson and propagation modules. The time-dependent closed forms
accept scalar t or an array of times; an array gives the matching stack of
matrices or states, each bit-identical to its scalar evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dyson import DysonSample
from .metric import SU2Hamiltonian, ZetaConstants
from .su2 import _entry_major, pauli_compose


@dataclass(frozen=True)
class YangLeeParams:
    """Model constants (gamma, omega) plus derived frequencies and anchor time.

    gamma is restricted to (0, 1): at gamma = 1 the eigenvalues of H1
    coalesce (exceptional point) and beyond it they form a complex-conjugate
    pair, so no positive-definite metric exists. At gamma <= 2^-27,
    phi = sqrt(1 - gamma^2) rounds to 1 and the closed forms divide by
    1 - phi, so those gamma are refused too. The anchor time
    t0 = -pi/(2 phi) is where the metric becomes the scalar (phi^2/gamma) I.
    """

    gamma: float
    omega: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.phi == 1.0:
            raise ValueError(
                f"gamma must exceed 2^-27 = {2.0**-27:.6g}: at or below it "
                f"phi = sqrt(1 - gamma^2) rounds to 1, got {self.gamma}"
            )
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")

    @property
    def phi(self) -> float:
        """Level splitting E_plus - E_minus = sqrt(1 - gamma^2)."""
        return math.sqrt(1.0 - self.gamma**2)

    @property
    def t0(self) -> float:
        return -math.pi / (2.0 * self.phi)

    @property
    def period(self) -> float:
        """Common period 2 pi / phi of metric, Hamiltonian and energies."""
        return 2.0 * math.pi / self.phi


def _pauli_sign(sign) -> int:
    if sign in (+1, -1):
        return int(sign)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def h1_su2(p: YangLeeParams) -> SU2Hamiltonian:
    """H1 in coefficient form: kappa0 = -omega, kappa = -e_z, lambda = -gamma e_x."""
    return SU2Hamiltonian(
        kappa0=-p.omega,
        lambda0=0.0,
        kappa_vec=(0.0, 0.0, -1.0),
        lambda_vec=(-p.gamma, 0.0, 0.0),
    )


def h1_matrix(p: YangLeeParams) -> np.ndarray:
    """One-site Hamiltonian H1 = -1/2 (omega I + sigma_z + i gamma sigma_x), composed from h1_su2."""
    return h1_su2(p).matrix()


def eigenvalues_h1(p: YangLeeParams) -> tuple[float, float]:
    """Real eigenvalues (E_plus, E_minus) = ((-omega + phi)/2, (-omega - phi)/2)."""
    return 0.5 * (-p.omega + p.phi), 0.5 * (-p.omega - p.phi)


def psi_pm(t, sign: int, p: YangLeeParams) -> np.ndarray:
    """Eigenstate solution of the non-Hermitian TDSE i d/dt Psi = H1 Psi.

    Psi_pm(t) = sqrt(gamma) / (sqrt(2) phi sqrt(1 +- phi))
              * (gamma, i (1 +- phi))^T e^{-i E_pm t},
    normalized so that <Psi_pm | rho(t) Psi_pm> = 1 at every t. An array
    of times gives a (..., 2) stack of states.
    """
    s = _pauli_sign(sign)
    e_plus, e_minus = eigenvalues_h1(p)
    energy = e_plus if s > 0 else e_minus
    pref = math.sqrt(p.gamma) / (math.sqrt(2.0) * p.phi * math.sqrt(1.0 + s * p.phi))
    vec = np.array([p.gamma, 1j * (1.0 + s * p.phi)], dtype=complex)
    return pref * vec * np.exp(-1j * energy * np.asarray(t, dtype=float))[..., None]


def _sin_cos(t, p: YangLeeParams):
    t = np.asarray(t, dtype=float)
    return np.sin(p.phi * t), np.cos(p.phi * t)


def _rho_coeffs(s, c, p: YangLeeParams):
    """Coefficients (alpha, beta_x, beta_y) of rho on I, sigma_x, sigma_y, from s, c = _sin_cos(t, p)."""
    return 1.0 / p.gamma + p.gamma * s, p.phi * c, -(1.0 + s)


def rho_closed(t, p: YangLeeParams) -> np.ndarray:
    """Oscillatory metric rho(t); Hermitian with constant det = phi^4 / gamma^2."""
    return pauli_compose(*_rho_coeffs(*_sin_cos(t, p), p), 0.0)


def rho_closed_dot(t, p: YangLeeParams) -> np.ndarray:
    """Analytic time derivative of rho_closed."""
    s, c = _sin_cos(t, p)
    return pauli_compose(p.gamma * p.phi * c, -(p.phi**2 * s), -(p.phi * c), 0.0)


def rho_closed_constants(p: YangLeeParams) -> ZetaConstants:
    """Constants (0, -phi/gamma, -1/gamma, 0) generating rho_closed via zeta_metric."""
    return ZetaConstants(c1=0.0, c2=-p.phi / p.gamma, c3=-1.0 / p.gamma, c4=0.0)


def eta_closed(t, p: YangLeeParams) -> DysonSample:
    """Hermitian Dyson map eta(t) = sqrt(rho(t)) with its analytic derivative.

    With p0(t) = 1 + sin(phi t) + i phi cos(phi t) and
    p_pm(t) = sqrt(1/gamma + gamma sin(phi t) +- |p0(t)|):

        eta = (p_+ + p_-)/2 I
            + (p_+ - p_-)/(2 |p0|) [Im(p0) sigma_x - Re(p0) sigma_y].

    Because p_+^2 - p_-^2 = 2 |p0| identically, the coefficient
    (p_+ - p_-)/(2 |p0|) equals 1/(p_+ + p_-); that regular form is used
    here since |p0| vanishes at t0 modulo one period. An array of times
    gives one DysonSample over them; it holds the real Pauli forms of eta
    and eta_dot and composes their (..., 2, 2) stacks on first use.
    """
    s, c = _sin_cos(t, p)
    alpha, beta_x, beta_y = _rho_coeffs(s, c, p)
    delta = p.phi**2 / p.gamma  # sqrt(det rho), conserved
    a = np.sqrt(0.5 * (alpha + delta))
    bx = beta_x / (2.0 * a)
    by = beta_y / (2.0 * a)
    alpha_dot = p.gamma * p.phi * c
    a_dot = alpha_dot / (4.0 * a)
    bx_dot = -p.phi**2 * s / (2.0 * a) - p.phi * c * a_dot / (2.0 * a * a)
    by_dot = -p.phi * c / (2.0 * a) + (1.0 + s) * a_dot / (2.0 * a * a)
    forms = [np.stack(np.broadcast_arrays(*x, 0.0)) for x in ((a, bx, by), (a_dot, bx_dot, by_dot))]
    return DysonSample(np.asarray(t, dtype=float)[()], forms=tuple(forms))


def _denominator(t, p: YangLeeParams):
    """2 + gamma^2 sin(phi t) - gamma^2, the denominator of h and of the energies."""
    return 2.0 + p.gamma**2 * np.sin(p.phi * np.asarray(t, dtype=float)) - p.gamma**2


def rabi_h(t, p: YangLeeParams) -> np.ndarray:
    """Hermitian Rabi-type Hamiltonian produced by the Dyson map.

    h(t) = -1/2 [omega I + 2 phi^2 / (2 + gamma^2 sin(phi t) - gamma^2) sigma_z].
    Diagonal, periodic with period 2 pi / phi; the denominator is bounded
    below by 2 phi^2 > 0 for gamma < 1. Accepts scalar t, giving one (2, 2)
    matrix, or an array of times, giving a (..., 2, 2) stack. The -1/2
    goes into the coefficients, so the zero entries are 0.0, never -0.0.
    """
    return pauli_compose(*_rabi_coefficients(t, p))


def rabi_form(t, p: YangLeeParams) -> np.ndarray:
    """rabi_h's real Pauli form (su2.pauli_form), a (4, ...) array over the times."""
    return np.stack(np.broadcast_arrays(*_rabi_coefficients(t, p)))


def _rabi_coefficients(t, p: YangLeeParams):
    return -0.5 * p.omega, 0.0, 0.0, -0.5 * (2.0 * p.phi**2 / _denominator(t, p))


def _phase(t, p: YangLeeParams):
    """The linear phase and the arctan argument X of theta, at scalar or array t."""
    t = np.asarray(t, dtype=float)
    s, c = _sin_cos(t, p)
    g2 = p.gamma**2
    x = g2 * c / (2.0 - g2 + 2.0 * p.phi + g2 * s)
    return 0.5 * p.omega * (t - p.t0) + 0.5 * p.phi * t + np.pi / 4.0, x


def theta(t, p: YangLeeParams):
    """Accumulated phase of the upper propagator component.

    theta(t) = (omega/2)(t - t0) + phi t/2 + pi/4 + arctan X(t),
    X(t) = gamma^2 cos(phi t) / (2 - gamma^2 + 2 phi + gamma^2 sin(phi t)).

    The denominator of X is at least 2 phi (1 + phi) > 0, so theta is
    smooth with no branch of the arctan to continue, theta(t0) = 0 and

        d theta / dt = omega/2 + phi^2 / (2 + gamma^2 sin(phi t) - gamma^2).

    Accepts scalar or array t.
    """
    lin, x = _phase(t, p)
    out = lin + np.arctan(x)
    return float(out) if np.isscalar(t) else out


def theta_dot(t, p: YangLeeParams):
    """d theta / dt = omega/2 + phi/2 + X'/(1 + X^2), differentiated from theta's arctan X form.

    X' = -gamma^2 phi (D sin(phi t) + gamma^2 cos^2(phi t)) / D^2, D being the
    denominator of X. It takes only sin, cos and arithmetic, which round the
    same on numpy's AVX2 and AVX512 loops, and not rabi_h's form of the
    same rate. Accepts scalar or array t.
    """
    s, c = _sin_cos(t, p)
    g2 = p.gamma**2
    den = 2.0 - g2 + 2.0 * p.phi + g2 * s
    x = g2 * c / den
    x_dot = -g2 * p.phi * (den * s + g2 * c * c) / (den * den)
    out = 0.5 * p.omega + 0.5 * p.phi + x_dot / (1.0 + x * x)
    return float(out) if np.isscalar(t) else out


def u_closed(t, p: YangLeeParams) -> np.ndarray:
    """Closed-form propagator u(t, t0) of the Rabi-type Hamiltonian.

    Diagonal because h(t) is:
    u = diag(e^{i theta(t)}, e^{i [pi omega/(2 phi) + omega t - theta(t)]}),
    so u(t0, t0) = I, u is unitary, and det u = e^{i omega (t - t0)}.
    e^{i arctan X} of theta is formed as (1 + i X)/sqrt(1 + X^2), so u takes
    only sin, cos, sqrt, division, products and the complex exp, which
    round the same on numpy's AVX2 and AVX512 loops. An array of times
    gives a (..., 2, 2) stack.
    """
    t = np.asarray(t, dtype=float)
    lin, x = _phase(t, p)
    cos_a = 1.0 / np.sqrt(1.0 + x * x)
    rot = cos_a + 1j * (x * cos_a)
    out = _entry_major(t.shape)
    out[..., 0, 1] = out[..., 1, 0] = 0.0
    np.multiply(np.exp(1j * lin), rot, out=out[..., 0, 0])
    lower = np.exp(1j * (np.pi * p.omega / (2.0 * p.phi) + p.omega * t - lin))
    np.multiply(lower, np.conj(rot), out=out[..., 1, 1])
    return out


@dataclass(frozen=True)
class BasisStates:
    """Canonical Hermitian-picture basis at t0 and its expansion coefficients.

    phi1 and phi2 are rebuilt from the Dyson-mapped eigenstates
    phi_pm(t0) = eta(t0) Psi_pm(t0) as

        phi1 = c_plus  phi_- + c_minus phi_+   (= (1, 0) up to numerics)
        phi2 = c_minus phi_- - c_plus  phi_+   (= (0, 1) up to numerics)
    """

    phi1: np.ndarray
    phi2: np.ndarray
    c_plus: complex
    c_minus: complex


def basis_states(p: YangLeeParams) -> BasisStates:
    """Expansion of (1,0) and (0,1) over the Dyson-mapped eigenstates at t0.

    c_pm = e^{i pi/4 (omega/phi +- 1)} (sqrt(1 +- phi) - gamma sqrt(1 -+ phi))
           / (sqrt(2) phi^2);

    note the square roots run over 1 +- phi, the level splitting, not over
    1 +- gamma. The reconstruction is exact and doubles as the validation of
    the coefficients.
    """
    root_plus = math.sqrt(1.0 + p.phi)
    root_minus = math.sqrt(1.0 - p.phi)
    pref = 1.0 / (math.sqrt(2.0) * p.phi**2)
    c_plus = pref * np.exp(1j * np.pi / 4.0 * (p.omega / p.phi + 1.0)) * (
        root_plus - p.gamma * root_minus
    )
    c_minus = pref * np.exp(1j * np.pi / 4.0 * (p.omega / p.phi - 1.0)) * (
        root_minus - p.gamma * root_plus
    )
    eta0 = eta_closed(p.t0, p).eta
    phi_p = eta0 @ psi_pm(p.t0, +1, p)
    phi_m = eta0 @ psi_pm(p.t0, -1, p)
    return BasisStates(
        phi1=c_plus * phi_m + c_minus * phi_p,
        phi2=c_minus * phi_m - c_plus * phi_p,
        c_plus=complex(c_plus),
        c_minus=complex(c_minus),
    )


def energy_expectation(t, sign: int, p: YangLeeParams):
    """Energy expectation E_pm(t) = +- phi^3 / (2 + gamma^2 sin(phi t) - gamma^2) - omega/2.

    Equals <phi_pm(t)| h(t) |phi_pm(t)> in the Hermitian picture and
    <Psi_pm(t)| rho(t) Htilde(t) |Psi_pm(t)> in the non-Hermitian one. It
    oscillates with frequency phi between the static eigenvalues E_pm at t0
    and (+- phi^3 - omega)/2 at -t0. A float for scalar t, an array for an
    array of times.
    """
    return _pauli_sign(sign) * p.phi**3 / _denominator(t, p) - 0.5 * p.omega
