"""Exact time-dependent Hermitian dynamics from static non-Hermitian SU(2) models.

The pipeline: solve the metric flow d/dt rho = -i (H^dag rho - rho H) for a
static non-Hermitian H (closed form or RK4), take the Hermitian Dyson map
eta = sqrt(rho), map H onto its Hermitian counterpart
h = eta H eta^-1 + i eta_dot eta^-1, and propagate in either picture. The
one-site Yang-Lee model provides closed forms for every step, which double
as oracles for all numeric paths.
"""

__version__ = "0.1.0"

from . import errors
from .dyson import (
    DysonSample,
    dyson_from_metric,
    fourth_order_derivative,
    hermitian_counterpart,
    invert_dyson_map,
    physical_hamiltonian,
    quasi_hermiticity_residual,
)
from .metric import (
    MetricFlow,
    MetricState,
    SU2Hamiltonian,
    ZetaConstants,
    integrate_metric,
    integrate_metric_from,
    metric_rhs,
    positivity_margin,
    zeta_metric,
    zeta_metric_dot,
)
from .propagate import (
    evolve_state,
    nonhermitian_u,
    propagator_series,
    rho_inner,
    time_ordered_u,
)
from .series import IntegrationGrid, TimeSeries
from .su2 import (
    IDENTITY,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    complex2x2,
    dagger,
    det,
    frobenius_norm,
    hermitian_sqrt,
    hermitian_sqrt_derivative,
    hermiticity_residual,
    mul,
    pauli_compose,
    pauli_decompose,
    require_hpd,
)
from .yang_lee import (
    BasisStates,
    YangLeeParams,
    basis_states,
    eigenvalues_h1,
    energy_expectation,
    eta_closed,
    h1_matrix,
    h1_su2,
    psi_pm,
    rabi_h,
    rho_closed,
    rho_closed_constants,
    rho_closed_dot,
    theta,
    theta_dot,
    u_closed,
)

__all__ = [
    "__version__",
    "errors",
    "IDENTITY",
    "PAULIS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "complex2x2",
    "dagger",
    "det",
    "frobenius_norm",
    "hermitian_sqrt",
    "hermitian_sqrt_derivative",
    "hermiticity_residual",
    "mul",
    "pauli_compose",
    "pauli_decompose",
    "require_hpd",
    "IntegrationGrid",
    "TimeSeries",
    "MetricFlow",
    "MetricState",
    "SU2Hamiltonian",
    "ZetaConstants",
    "integrate_metric",
    "integrate_metric_from",
    "metric_rhs",
    "positivity_margin",
    "zeta_metric",
    "zeta_metric_dot",
    "DysonSample",
    "dyson_from_metric",
    "fourth_order_derivative",
    "hermitian_counterpart",
    "invert_dyson_map",
    "physical_hamiltonian",
    "quasi_hermiticity_residual",
    "evolve_state",
    "nonhermitian_u",
    "propagator_series",
    "rho_inner",
    "time_ordered_u",
    "BasisStates",
    "YangLeeParams",
    "basis_states",
    "eigenvalues_h1",
    "energy_expectation",
    "eta_closed",
    "h1_matrix",
    "h1_su2",
    "psi_pm",
    "rabi_h",
    "rho_closed",
    "rho_closed_constants",
    "rho_closed_dot",
    "theta",
    "theta_dot",
    "u_closed",
]
