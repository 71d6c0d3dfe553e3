"""Stack layout: every stack the package builds is entry-major, and no result depends on the input's layout.

Entry-major means a (..., 2, k) stack laid out in memory as a C-ordered
(2, k, ...) array, so each entry m[..., i, j] is one C-contiguous array over
the stack; one (2, 2) matrix is C-contiguous. A caller may pass stacks in any
layout and gets the same bits back.
"""

import numpy as np
import pytest

from dysonflow import (
    DysonSample,
    IntegrationGrid,
    YangLeeParams,
    dyson_from_metric,
    eta_closed,
    frobenius_norm,
    h1_matrix,
    h1_su2,
    hermitian_counterpart,
    hermitian_sqrt,
    hermiticity_residual,
    integrate_metric,
    invert_dyson_map,
    mul,
    pauli_compose,
    physical_hamiltonian,
    propagator_series,
    quasi_hermiticity_residual,
    rabi_h,
    rho_closed,
)
from dysonflow._integrate import rk4_linear, stage_times
from dysonflow.dyson import dyson_forms
from dysonflow.su2 import hermitian_part, hermitian_sqrt_derivative, pauli_form, require_hpd
from dysonflow.yang_lee import rho_closed_dot, u_closed

P = YangLeeParams(gamma=0.6, omega=0.9)
T = np.linspace(P.t0, P.t0 + 1.3 * P.period, 1001)
GRID = IntegrationGrid(-0.5, 1.5, 5e-3)

# C-ordered stacks, as a library caller would build them
RHO = np.ascontiguousarray(rho_closed(T, P))
ETA = np.ascontiguousarray(hermitian_sqrt(RHO))
RHO_DOT = np.ascontiguousarray(rho_closed_dot(T, P))


def entry_major(m):
    """A copy of the stack m stored entry-major."""
    out = np.moveaxis(np.empty(m.shape[-2:] + m.shape[:-2], dtype=m.dtype), (0, 1), (-2, -1))
    out[...] = m
    return out


def assert_entry_major(m):
    assert all(m[..., i, j].flags.c_contiguous for i, j in np.ndindex(m.shape[-2:]))
    if m.ndim == 2:
        assert m.flags.c_contiguous


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def random_stack(seed, k=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((len(T), 2, k)) + 1j * rng.standard_normal((len(T), 2, k))


def numeric_metric():
    return integrate_metric(h1_su2(P), rho_closed(GRID.t_start, P), GRID)


def test_an_entry_major_copy_keeps_the_values():
    m = random_stack(1)
    copy = entry_major(m)
    assert_entry_major(copy)
    assert not copy.flags.c_contiguous
    assert np.array_equal(bits(copy), bits(m))


BUILDERS = {
    "mul": lambda: [mul(ETA, RHO), mul(ETA, RHO[:, :, :1]), mul(ETA[0], RHO[:7])],
    "pauli_compose": lambda: [
        pauli_compose(T, 0.5 * T, 1j * T, 2.0),
        pauli_compose(*np.ones((4, 3, 5))),
        pauli_compose(T, -0.0, 0.5 * T, 0.0),
    ],
    "hermitian_part": lambda: [hermitian_part(random_stack(7))],
    "hermitian_sqrt": lambda: [hermitian_sqrt(RHO)],
    "hermitian_sqrt_derivative": lambda: [hermitian_sqrt_derivative(ETA, RHO_DOT)],
    "invert_dyson_map": lambda: [invert_dyson_map(ETA)],
    "hermitian_counterpart": lambda: [hermitian_counterpart(h1_matrix(P), DysonSample(T, ETA, RHO_DOT))],
    "physical_hamiltonian": lambda: [physical_hamiltonian(h1_matrix(P), DysonSample(T, ETA, RHO_DOT))],
    "rho_closed": lambda: [rho_closed(T, P)],
    "rho_closed_dot": lambda: [rho_closed_dot(T, P)],
    "eta_closed": lambda: [eta_closed(T, P).eta, eta_closed(T, P).eta_dot],
    "rabi_h": lambda: [rabi_h(T, P)],
    "u_closed": lambda: [u_closed(T, P), u_closed(T.reshape(7, -1)[:, :11], P)],
    "integrate_metric": lambda: [numeric_metric().series.samples],
    "propagator_series": lambda: [
        propagator_series(lambda t: np.ascontiguousarray(rabi_h(t, P)), GRID).samples
    ],
    "dyson_from_metric": lambda: [dyson_from_metric(numeric_metric()).eta, dyson_from_metric(numeric_metric()).eta_dot],
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_every_built_stack_is_entry_major(build):
    # from C-ordered inputs too: the builders fill their own allocation entry by entry
    for out in build():
        assert out.ndim >= 3
        assert_entry_major(out)


def test_one_matrix_stays_c_contiguous():
    rho, eta, rho_dot, t = RHO[3], ETA[3], RHO_DOT[3], float(T[3])
    for out in (
        mul(eta, rho),
        pauli_compose(1.0, 0.5, 0.25j, 2.0),
        hermitian_part(rho_dot),
        hermitian_sqrt(rho),
        hermitian_sqrt_derivative(eta, rho_dot),
        invert_dyson_map(eta),
        hermitian_counterpart(h1_matrix(P), DysonSample(t, eta, rho_dot)),
        physical_hamiltonian(h1_matrix(P), DysonSample(t, eta, rho_dot)),
        rho_closed(t, P),
        rho_closed_dot(t, P),
        eta_closed(t, P).eta,
        eta_closed(t, P).eta_dot,
        rabi_h(t, P),
        u_closed(t, P),
    ):
        assert out.shape == (2, 2) and out.flags.c_contiguous


def hermitian_counterparts(h, eta, eta_dot):
    return hermitian_counterpart(h, DysonSample(T, eta, eta_dot))


def physical_hamiltonians(h, eta, eta_dot):
    return physical_hamiltonian(h, DysonSample(T, eta, eta_dot))


def rk4_of(a, y0):
    return rk4_linear(a, y0, GRID.t_start, GRID.dt, GRID.n_steps)


def stage_stack():
    return -1j * np.ascontiguousarray(rabi_h(stage_times(GRID.t_start, GRID.dt, GRID.n_steps), P))


# each kernel with its C-ordered arguments; the stacks among them are also
# passed as entry-major copies
KERNELS = {
    "mul": (mul, lambda: (random_stack(5), random_stack(6))),
    "mul column": (mul, lambda: (random_stack(5), random_stack(6, k=1))),
    "hermitian_part": (hermitian_part, lambda: (random_stack(5),)),
    "hermitian_sqrt": (hermitian_sqrt, lambda: (RHO,)),
    "hermitian_sqrt_derivative": (hermitian_sqrt_derivative, lambda: (ETA, RHO_DOT)),
    "invert_dyson_map": (invert_dyson_map, lambda: (random_stack(5),)),
    "frobenius_norm": (frobenius_norm, lambda: (random_stack(5),)),
    "hermiticity_residual": (hermiticity_residual, lambda: (random_stack(5),)),
    "quasi_hermiticity_residual": (quasi_hermiticity_residual, lambda: (random_stack(5), RHO)),
    "hermitian_counterpart": (hermitian_counterparts, lambda: (h1_matrix(P), ETA, random_stack(5))),
    "physical_hamiltonian": (physical_hamiltonians, lambda: (h1_matrix(P), ETA, random_stack(5))),
    "pauli_form": (pauli_form, lambda: (random_stack(5),)),
    "dyson_forms": (lambda rho: np.stack(dyson_forms(h1_su2(P), *require_hpd(rho))), lambda: (RHO,)),
    "rk4_linear": (rk4_of, lambda: (stage_stack(), np.eye(2, dtype=complex))),
    "rk4_linear vector": (rk4_of, lambda: (stage_stack(), np.array([0.6, 0.8j]))),
}


@pytest.mark.parametrize("kernel, args", KERNELS.values(), ids=KERNELS)
def test_results_do_not_depend_on_the_input_layout(kernel, args):
    c_args = args()
    assert any(np.ndim(x) >= 3 for x in c_args)
    assert all(np.ndim(x) < 3 or x.flags.c_contiguous for x in c_args)
    em_args = [entry_major(x) if np.ndim(x) >= 3 else x for x in c_args]
    assert np.array_equal(bits(kernel(*c_args)), bits(kernel(*em_args)))
