"""Seeded workload definitions for the dysonflow benchmark.

Each workload is one CLI path of the program. ``generate(name, seed)``
turns a seed into an invocation: the verb, the JSON config the program
reads, and (for ``sweep``) the parameter values. The same seed gives a
byte-identical invocation. The seed only draws physical parameters inside
fixed bands; the number of grid samples is fixed per workload, so the
work done does not depend on the seed.

The program receives only ``config`` (plus the sweep values, as a user
would pass them with ``--values``); ``samples`` and the expectations below
stay on the benchmark side.
"""

import json
import math
import random
from dataclasses import dataclass

OUT_ROOT = ".perfbench_out"

ALL_OUTPUTS = ("metric", "dyson", "hermitian_h", "states", "propagator", "energies", "invariants")

# Yang-Lee default size: two periods at gamma = 1/2 and dt = 1e-3 are ~14.5k steps.
YANG_LEE_STEPS = 14_500
YANG_LEE_DT = 1e-3
# su2-generic: dt = 2e-3 over 16.0 time units, which covers two metric
# periods 2 pi / sqrt(1 - lambda^2) for every lambda up to 0.6 (15.71).
GENERIC_STEPS = 8_000
GENERIC_DT = 2e-3
# sweep: a fixed window, so each value integrates the same number of steps.
SWEEP_STEPS = 3_000
SWEEP_DT = 1e-3
SWEEP_VALUES = 6

YANG_LEE_CLOSED_CHECKS = (
    "metric_hermitian", "metric_flow_residual", "det_rho_constant", "eta_squared_matches_rho",
    "eta_hermitian", "h_hermitian", "dyson_relation", "htilde_quasi_hermitian",
    "h1_not_quasi_hermitian", "inner_product_unit", "inner_product_cross", "psi_tdse_residual",
    "phi_tdse_residual", "u_identity_at_anchor", "u_unitary", "u_tdse_residual",
    "basis_reconstruction", "energy_matches_h_expectation", "energy_matches_metric_expectation",
    "energy_endpoint_values",
)
YANG_LEE_NUMERIC_CHECKS = (
    "metric_numeric_vs_closed", "metric_hermitian", "det_rho_drift", "positivity_maintained",
    "eta_numeric_vs_closed", "h_numeric_vs_closed", "h_hermitian", "htilde_quasi_hermitian",
    "u_numeric_vs_closed", "u_unitary", "rho_inner_preserved", "nonunitary_flat_metric",
)
SU2_GENERIC_CHECKS = (
    "metric_flow_residual_fd", "metric_numeric_vs_closed", "metric_hermitian", "det_rho_drift",
    "positivity_maintained", "eta_squared_matches_rho", "h_hermitian", "htilde_quasi_hermitian",
    "u_unitary",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str  # "run", "verify" or "sweep"
    # Check names the report must contain; a missing one means a dropped check.
    checks: tuple
    # Checks that FAIL on the code this benchmark was defined on. They may
    # FAIL or PASS; any other FAIL is a wrong output.
    known_failures: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="closed-emit",
            why=(
                "yang-lee-closed closed forms, per-sample Dyson relation and all 7 CSV series "
                "(~10 MB); no RK4 and no square root, so it bypasses _integrate and hermitian_sqrt"
            ),
            verb="run",
            checks=YANG_LEE_CLOSED_CHECKS,
        ),
        Workload(
            name="numeric-verify",
            why=(
                "yang-lee-numeric verify: RK4 metric and propagator, one eigh square root per "
                "sample, validation; writes nothing, the no-emit mirror of closed-emit"
            ),
            verb="verify",
            checks=YANG_LEE_NUMERIC_CHECKS,
        ),
        Workload(
            name="generic-propagate",
            why=(
                "su2-generic propagator/states/energies as JSON: 3 hermitian_sqrt and 3 zeta_metric "
                "per RK4 source call; the only heavy zeta_metric user; fails u_unitary today"
            ),
            verb="run",
            checks=SU2_GENERIC_CHECKS,
            known_failures=("u_unitary",),
        ),
        Workload(
            name="sweep-gamma",
            why=(
                "sweep --param gamma over 6 values, one near the exceptional point: the only user "
                "of cli.sweep/_sweep_row, one pipeline re-entry per value and a tiny table"
            ),
            verb="sweep",
            checks=(),
        ),
    )
}


def _yang_lee_anchor(gamma):
    # t0 = -pi / (2 phi), the CLI's default window start for Yang-Lee scenarios
    return -math.pi / (2.0 * math.sqrt(1.0 - gamma**2))


def _rotation(rng):
    """Uniformly random rotation matrix (Shoemake's unit-quaternion method)."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def _rotate(r, v):
    return [sum(r[i][j] * v[j] for j in range(3)) for i in range(3)]


def _yang_lee_config(rng, name, scenario, outputs):
    gamma = round(rng.uniform(0.3, 0.7), 6)
    omega = round(rng.uniform(0.5, 1.5), 6)
    t_start = _yang_lee_anchor(gamma)
    return {
        "scenario": scenario,
        "gamma": gamma,
        "omega": omega,
        "t_start": t_start,
        "t_end": t_start + YANG_LEE_STEPS * YANG_LEE_DT,
        "dt": YANG_LEE_DT,
        "outputs": list(outputs),
        "format": "csv",
        "out_path": f"{OUT_ROOT}/{name}/out",
    }


def generate(name, seed):
    """The invocation for workload ``name`` under ``seed``, as a JSON-ready dict."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    values = None
    if name == "closed-emit":
        config = _yang_lee_config(rng, name, "yang-lee-closed", ALL_OUTPUTS)
        samples = YANG_LEE_STEPS + 1
    elif name == "numeric-verify":
        config = _yang_lee_config(rng, name, "yang-lee-numeric", ())
        samples = YANG_LEE_STEPS + 1
    elif name == "generic-propagate":
        # Yang-Lee coefficients kappa = -e_z, lambda = -|l| e_x in a random frame,
        # with the canonical constants (0, -phi/|l|, -1/|l|, 0) of rho_closed
        lam = round(rng.uniform(0.4, 0.6), 6)
        phi = math.sqrt(1.0 - lam**2)
        r = _rotation(rng)
        config = {
            "scenario": "su2-generic",
            "kappa0": -1.0,
            "lambda0": 0.0,
            "kappa_vec": _rotate(r, (0.0, 0.0, -1.0)),
            "lambda_vec": _rotate(r, (-lam, 0.0, 0.0)),
            "zeta_constants": [0.0, -phi / lam, -1.0 / lam, 0.0],
            "t_start": 0.0,
            "t_end": GENERIC_STEPS * GENERIC_DT,
            "dt": GENERIC_DT,
            "outputs": ["propagator", "states", "energies"],
            "format": "json",
            "out_path": f"{OUT_ROOT}/{name}/out",
        }
        samples = GENERIC_STEPS + 1
    elif name == "sweep-gamma":
        values = {round(rng.uniform(0.9, 0.95), 4)}  # always one near the exceptional point
        while len(values) < SWEEP_VALUES:
            values.add(round(rng.uniform(0.1, 0.95), 4))
        values = sorted(values)
        config = {
            "scenario": "yang-lee-numeric",
            "gamma": values[0],
            "omega": round(rng.uniform(0.5, 1.5), 6),
            "t_start": 0.0,
            "t_end": SWEEP_STEPS * SWEEP_DT,
            "dt": SWEEP_DT,
            "format": "csv",
            "out_path": f"{OUT_ROOT}/{name}/out",
        }
        samples = SWEEP_VALUES * (SWEEP_STEPS + 1)
    else:  # a workload listed in WORKLOADS but given no generator here
        raise KeyError(name)
    return {
        "workload": workload.name,
        "verb": workload.verb,
        "config": config,
        "sweep": None if values is None else {"param": "gamma", "values": values},
        "samples": samples,
    }


def dumps(obj):
    """Canonical JSON text, so equal invocations are byte-identical files."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
