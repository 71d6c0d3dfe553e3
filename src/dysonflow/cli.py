"""Configuration-driven front end: run scenarios, emit series, sweep parameters.

Usage:
    dysonflow run config.json [--gamma G] [--omega W] [--dt DT] [--out DIR]
    dysonflow verify config.json [...]
    dysonflow sweep config.json --param gamma --values 0.1,0.3,0.5 [...]

The config file is a single JSON object; command-line flags override file
values. ``run`` writes the requested series files plus a report.json into
the output directory and prints the verification report; ``verify`` prints
the report only; ``sweep`` writes one aggregate table, each row read from
the numeric scenario's report for one parameter value. Exit status: 0 when
every check passes, 1 on a failed check, 2 on a config error.

Each scenario is one pass over (n, 2, 2) stacks: every kernel is called
once on the whole time grid, not once per sample.

CSV floats carry 17 significant digits ("%.17g"); JSON floats are the
shortest repr that round-trips, with NaN and Infinity spelled as ``json``
spells them. Either way identical configs produce byte-identical files.
``run`` writes every requested series in one pass: the grid's rows are cut
into one contiguous range per usable CPU (at most 16), and each process
formats each distinct column of its range once for all the tables that
show it.
``sweep`` computes its values side by side over the usable CPUs. Both go
through ``_parallel._fork_map``, with the same bytes as one process.
"""

import argparse
import json
import math
import shutil
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import _fork_map, _usable_cpus
from .dyson import (
    MIN_DERIVATIVE_SAMPLES,
    DysonSample,
    dyson_from_metric,
    hermitian_counterpart,
    physical_hamiltonian,
    quasi_hermiticity_residual,
)
from .errors import ConfigInvalid, DysonflowError, UnsupportedHamiltonian
from .metric import (
    SU2Hamiltonian,
    ZetaConstants,
    _require_flow_solvable,
    integrate_metric,
    metric_rhs,
    positivity_margin,
    zeta_coefficients,
    zeta_metric,
)
from .propagate import propagator_series
from .series import IntegrationGrid
from .su2 import (
    IDENTITY,
    PauliCoefficients,
    dagger,
    det,
    frobenius_norm,
    hermitian_sqrt,
    hermitian_sqrt_derivative,
    hermiticity_residual,
    mul,
    pauli_compose,
    pauli_decompose,
)
from .yang_lee import (
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
    rho_closed_dot,
    rho_closed_constants,
    u_closed,
)

SCENARIOS = ("yang-lee-closed", "yang-lee-numeric", "su2-generic")
OUTPUTS = ("metric", "dyson", "hermitian_h", "states", "propagator", "energies", "invariants")
FORMATS = ("csv", "json")
SWEEP_PARAMS = ("gamma", "omega", "dt")


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    gamma: float = 0.5
    omega: float = 1.0
    zeta_constants: tuple | None = None
    t_start: float | None = None
    t_end: float | None = None
    dt: float = 1e-3
    outputs: tuple = ()
    format: str = "csv"
    out_path: str = "out"
    kappa0: float = 0.0
    lambda0: float = 0.0
    kappa_vec: tuple = (0.0, 0.0, -1.0)
    lambda_vec: tuple = (0.0, 0.0, 0.0)


def _as_float(raw, name):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {raw!r}")
    out = float(raw)
    if not math.isfinite(out):
        raise ConfigInvalid(f"{name} must be finite")
    return out


def _as_vec(raw, name):
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigInvalid(f"{name} must be a 3-element list")
    return tuple(_as_float(x, name) for x in raw)


def load_config(path, overrides=None) -> ScenarioConfig:
    """Read and validate a JSON config file, then apply flag overrides."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    cfg = ScenarioConfig(**{**{"scenario": ""}, **raw})
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return validate_config(cfg)


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    if cfg.scenario not in SCENARIOS:
        raise ConfigInvalid(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    gamma = _as_float(cfg.gamma, "gamma")
    omega = _as_float(cfg.omega, "omega")
    dt = _as_float(cfg.dt, "dt")
    if dt <= 0.0:
        raise ConfigInvalid(f"dt must be positive, got {dt}")
    if cfg.scenario.startswith("yang-lee") and not (0.0 < gamma < 1.0):
        raise ConfigInvalid(f"gamma must lie in (0, 1) for Yang-Lee scenarios, got {gamma}")
    zeta = cfg.zeta_constants
    if zeta is not None:
        if not isinstance(zeta, (list, tuple)) or len(zeta) != 4:
            raise ConfigInvalid("zeta_constants must be a 4-element list")
        zeta = tuple(_as_float(x, "zeta_constants") for x in zeta)
    if cfg.scenario.startswith("yang-lee") and zeta is not None:
        # the Yang-Lee oracle chain (eta, h, u) exists only for the canonical
        # metric family; other constants belong to the su2-generic scenario
        p = YangLeeParams(gamma=gamma, omega=omega)
        canonical = rho_closed_constants(p)
        if max(abs(z - c) for z, c in zip(zeta, astuple(canonical))) > 1e-12:
            raise ConfigInvalid(
                "yang-lee scenarios are pinned to the canonical metric constants "
                f"(0, {canonical.c2:.12g}, {canonical.c3:.12g}, 0); "
                "use the su2-generic scenario for other zeta_constants"
            )
    if not isinstance(cfg.outputs, (list, tuple)):
        raise ConfigInvalid(f"outputs must be a list of names from {OUTPUTS}, got {cfg.outputs!r}")
    outputs = tuple(cfg.outputs)
    for output in outputs:
        if output not in OUTPUTS:
            raise ConfigInvalid(f"unknown output {output!r}; choose from {OUTPUTS}")
    if not isinstance(cfg.out_path, str):
        raise ConfigInvalid(f"out_path must be a string, got {cfg.out_path!r}")
    if cfg.format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}, got {cfg.format!r}")
    t_start = None if cfg.t_start is None else _as_float(cfg.t_start, "t_start")
    t_end = None if cfg.t_end is None else _as_float(cfg.t_end, "t_end")
    cfg = replace(
        cfg,
        gamma=gamma,
        omega=omega,
        dt=dt,
        zeta_constants=zeta,
        outputs=outputs,
        t_start=t_start,
        t_end=t_end,
        kappa0=_as_float(cfg.kappa0, "kappa0"),
        lambda0=_as_float(cfg.lambda0, "lambda0"),
        kappa_vec=_as_vec(cfg.kappa_vec, "kappa_vec"),
        lambda_vec=_as_vec(cfg.lambda_vec, "lambda_vec"),
    )
    if cfg.scenario == "su2-generic":
        try:
            h, zeta, _period = _su2_config(cfg)  # the closed-form reference exists only where its rule holds
        except UnsupportedHamiltonian as exc:
            raise ConfigInvalid(f"su2-generic: {exc}") from exc
        # det rho is conserved along the zeta family, so t = 0 decides every t
        rho0 = zeta_metric(0.0, h, zeta)
        margin = positivity_margin(rho0)
        if rho0.alpha <= 0.0 or margin <= 0.0:
            raise ConfigInvalid(
                "su2-generic: zeta_constants give a metric that is not positive definite "
                f"(alpha = {rho0.alpha:.6g}, det rho = {margin:.6g})"
            )
    return cfg


def _resolve_window(cfg: ScenarioConfig, periods: int = 2):
    """Snap the requested window onto a whole number of dt steps.

    An open start is the scenario's natural one (the anchor time t0 for
    Yang-Lee, 0 for su2-generic), an open end lies ``periods`` natural
    periods after the start. The numeric scenarios differentiate eta over
    the window, so they need at least MIN_DERIVATIVE_SAMPLES - 1 steps.
    """
    if cfg.scenario == "su2-generic":
        default_start, period = 0.0, _su2_config(cfg)[2]
    else:
        p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
        default_start, period = p.t0, p.period
    t_start = cfg.t_start if cfg.t_start is not None else default_start
    span = (cfg.t_end - t_start) if cfg.t_end is not None else periods * period
    if span <= 0.0:
        raise ConfigInvalid(f"t_end must exceed t_start, got span {span}")
    n = max(1, round(span / cfg.dt))
    min_steps = MIN_DERIVATIVE_SAMPLES - 1
    if cfg.scenario != "yang-lee-closed" and n < min_steps:
        raise ConfigInvalid(
            f"{cfg.scenario} needs a window of at least {min_steps} dt steps for its "
            f"fourth-order eta_dot, got {n} (span {span:.6g}, dt {cfg.dt:.6g})"
        )
    return IntegrationGrid(t_start=t_start, t_end=t_start + n * cfg.dt, dt=cfg.dt)


# ----------------------------------------------------------------------
# Verification report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One verified invariant: an aggregated residual against its tolerance."""

    name: str
    value: float
    tolerance: float
    mode: str = "max_le"  # "max_le" passes when value <= tolerance, "min_gt" when value > tolerance

    @property
    def passed(self) -> bool:
        if self.mode == "max_le":
            return self.value <= self.tolerance
        if self.mode == "min_gt":
            return self.value > self.tolerance
        raise ValueError(f"unknown check mode {self.mode!r}")


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    checks: tuple

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "overall": "PASS" if self.overall_pass else "FAIL",
            "checks": [{**asdict(c), "status": "PASS" if c.passed else "FAIL"} for c in self.checks],
        }

    def format(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        width = max(len(c.name) for c in self.checks) if self.checks else 10
        for c in self.checks:
            rel = "<=" if c.mode == "max_le" else "> "
            lines.append(
                f"  {c.name:<{width}}  {c.value:12.5e} {rel} {c.tolerance:9.2e}  "
                f"{'PASS' if c.passed else 'FAIL'}"
            )
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Stack helpers and output tables
# ----------------------------------------------------------------------

def _unitarity(u):
    return frobenius_norm(mul(dagger(u), u) - IDENTITY)


def _dot3(a, b):
    """Row-wise dot products of real 3-vectors, summed entry by entry."""
    b = np.asarray(b)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _apply(m, psi):
    """m psi for a matrix or (n, 2, 2) stack m and a state or (n, 2) stack psi."""
    return mul(m, np.asarray(psi)[..., None])[..., 0]


def _braket(a, m, b):
    """<a| m |b> for (n, 2) state stacks a, b and a matrix or (n, 2, 2) stack m."""
    mb = _apply(m, b)
    return a[..., 0].conj() * mb[..., 0] + a[..., 1].conj() * mb[..., 1]


def _matrix_header(prefix):
    return [f"{prefix}_{i}{j}_{part}" for i in (0, 1) for j in (0, 1) for part in ("re", "im")]


def _state_header(prefix):
    return [f"{prefix}_{k}_{part}" for k in (0, 1) for part in ("re", "im")]


def _float_columns(c):
    """The columns of a complex (n, ...) stack: its re/im parts, row-major, as 1-D views."""
    return list(np.ascontiguousarray(c).reshape(len(c), -1).view(float).T)


def _series(ts, metric, eta, h, invariants, u=None, energies=None):
    """The output tables of a scenario, as name -> build, build() -> (header, columns).

    A table's columns are 1-D float arrays, t first; a complex stack fills
    eight columns per matrix (or four per state), real part first.
    ``invariants`` maps column names to columns; ``metric`` returns the
    alpha, beta_x, beta_y, beta_z and det_rho columns and ``energies`` the
    name -> column map, so what only those tables show is computed only
    when they are written. Tables that show the same values hold the same
    column objects, which the writer formats once: every table starts with
    ``ts``, and states is propagator in another order. Without a
    propagator stack ``u`` there are no propagator, states or energies
    tables.
    """

    def matrix(prefix, m):
        return lambda: (["t", *_matrix_header(prefix)], [ts, *_float_columns(m)])

    series = {
        "metric": lambda: (["t", "alpha", "beta_x", "beta_y", "beta_z", "det_rho"], [ts, *metric()]),
        "dyson": matrix("eta", eta),
        "hermitian_h": matrix("h", h),
        "invariants": lambda: (["t", *invariants], [ts, *invariants.values()]),
    }
    if u is not None:
        u_columns = _float_columns(u)
        # the columns of u are the evolved basis states: phi1 is u_00, u_10 and phi2 is u_01, u_11
        phi = [u_columns[k] for k in (0, 1, 4, 5, 2, 3, 6, 7)]
        series["propagator"] = lambda: (["t", *_matrix_header("u")], [ts, *u_columns])
        series["states"] = lambda: (["t", *_state_header("phi1"), *_state_header("phi2")], [ts, *phi])

        def energy_table():
            columns = energies()
            return ["t", *columns], [ts, *columns.values()]

        series["energies"] = energy_table
    return series


def _metric_columns(rho, dets):
    """The metric table's columns of a stack rho: its Pauli split alpha, beta_x, beta_y, beta_z, then det rho."""
    c = pauli_decompose(rho)
    return c.a0.real, c.ax.real, c.ay.real, c.az.real, dets


def _write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:  # "\n" on every platform, as the tables
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_series(out_dir: Path, name: str, header, rows, cfg: ScenarioConfig):
    """Write one table, a time series or a sweep, as <name>.csv or <name>.json (see _write_tables).

    The table is written by this process alone: a sweep table holds one row
    per value, too few to pay for a fork.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    return _write_tables(out_dir, [(name, header, list(rows.T))], cfg)[0]


# rows per block; a block holds one string per value of every distinct column
# at once, about 2,400 strings for the 37 distinct columns of all 7 series
_BLOCK_ROWS = 64
_JSON_BLOCK_ROWS = _BLOCK_ROWS  # the name the JSON writer's tests place their edge cases by
# at most this many row ranges, so processes: each range past the first holds
# one temporary file per table and a pipe open in this process until the end
_MAX_RANGES = 16


def _json_float(x: float) -> str:
    """A float as ``json`` writes it: NaN, Infinity and -Infinity, else its repr."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _format_column(values, as_json: bool):
    """The strings of one column block: "%.17g" for CSV, the shortest round-trip repr for JSON."""
    if not as_json:
        return list(map("%.17g".__mod__, values.tolist()))
    fmt = float.__repr__ if np.isfinite(values).all() else _json_float
    return list(map(fmt, values.tolist()))


def _write_tables(out_dir: Path, tables, cfg: ScenarioConfig, parts: int = 1):
    """Write tables of one row count, each (name, header, columns), as <name>.csv or <name>.json.

    CSV floats keep 17 significant digits. A JSON file holds the bytes
    ``json.dump(indent=2, sort_keys=True)`` writes for {"columns",
    "metadata", key: one dict per row}, key being "samples" for a time
    series (first column t) and "rows" for a sweep: floats in their
    shortest round-trip repr, a repeated name keeping its last value as
    ``dict(zip(header, row))`` would. Only the head goes through ``json``;
    the rows are filled into a template, because ``json`` drops to its
    pure-Python encoder when ``indent`` is set.

    The rows are cut into ``parts`` contiguous ranges (at most one per row
    and _MAX_RANGES in all), one per process (``_parallel._fork_map``). A
    process walks its range in blocks of _BLOCK_ROWS rows, formats each
    distinct column of the block once (columns are told apart by identity)
    and writes every table's rows of the block. This process writes the
    first range straight into the files; each worker writes its range into
    unnamed temporary files in ``out_dir``, opened before the fork so that
    nothing is left behind when a process fails, and this process appends
    them in range order. The bytes do not depend on ``parts``; every line
    ends in "\n" on every platform. When any range fails, the table files
    are removed before the error is raised. Returns the paths, in table order.
    """
    if not tables:
        return []
    as_json = cfg.format == "json"
    n = len(tables[0][2][0])
    distinct = {}  # id of a column -> its index in columns
    columns = []
    paths, heads, layouts, tails = [], [], [], []
    for name, header, cols in tables:
        if as_json:
            last = {field: i for i, field in enumerate(header)}
            fields = sorted(last)
            cols = [cols[last[field]] for field in fields]
            key = "samples" if header[0] == "t" else "rows"
            head = json.dumps({"columns": list(header), "metadata": _metadata(cfg)}, indent=2, sort_keys=True)
            # key sorts after "metadata": reopen the head's closing "\n}" for it
            heads.append(f'{head[:-2]},\n  "{key}": ' + ("[\n" if n else "[]"))
            tails.append(("\n  ]" if n else "") + "\n}\n")
            row = ",\n".join(f"      {json.dumps(field).replace('%', '%%')}: %s" for field in fields)
            fill = ("    {\n" + row + "\n    }").__mod__
            # "before" goes ahead of every block but the table's first
            between, after, before = ",\n", "", ",\n"
        else:
            heads.append(",".join(header) + "\n")
            tails.append("")
            fill, between, after, before = ",".join, "\n", "\n", ""
        for col in cols:
            if id(col) not in distinct:
                distinct[id(col)] = len(columns)
                columns.append(np.asarray(col, dtype=float))
        layouts.append(([distinct[id(col)] for col in cols], fill, between, after, before))
        paths.append(out_dir / f"{name}.{cfg.format}")

    def write_rows(files, lo, hi):
        for start in range(lo, hi, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, hi)
            strings = [_format_column(col[start:stop], as_json) for col in columns]
            for fh, (order, fill, between, after, before) in zip(files, layouts):
                rows = between.join(map(fill, zip(*[strings[i] for i in order])))
                fh.write(((before if start else "") + rows + after).encode())
        for fh in files:
            fh.flush()  # a worker leaves through os._exit, which flushes nothing

    parts = max(1, min(parts, n, _MAX_RANGES))
    bounds = [n * k // parts for k in range(parts + 1)]
    try:
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "wb")) for path in paths]
            for fh, head in zip(files, heads):
                fh.write(head.encode())
            spills = [
                [stack.enter_context(tempfile.TemporaryFile(dir=out_dir)) for _ in tables] for _ in range(parts - 1)
            ]
            targets = [files, *spills]
            _fork_map(lambda k: write_rows(targets[k], bounds[k], bounds[k + 1]), range(parts))
            for j, (fh, tail) in enumerate(zip(files, tails)):
                for spill in spills:
                    spill[j].seek(0)
                    shutil.copyfileobj(spill[j], fh, 1 << 20)
                fh.write(tail.encode())
    except BaseException:
        for path in paths:  # a table cut short would still parse: leave none
            path.unlink(missing_ok=True)
        raise
    return paths


def _metadata(cfg: ScenarioConfig) -> dict:
    return {"config": asdict(cfg), "version": __version__}


def _subsample(n: int, want: int = 200) -> np.ndarray:
    step = max(1, n // want)
    return np.arange(0, n, step)


# ----------------------------------------------------------------------
# Yang-Lee pipelines
# ----------------------------------------------------------------------

def _yang_lee_closed(cfg: ScenarioConfig):
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    ts = _resolve_window(cfg).times
    h1m = h1_matrix(p)
    det_ref = p.phi**4 / p.gamma**2
    e_p, e_m = eigenvalues_h1(p)

    rho = rho_closed(ts, p)
    dys = eta_closed(ts, p)
    eta = dys.eta
    h = rabi_h(ts, p)
    u = u_closed(ts, p)
    h_tilde = physical_hamiltonian(h1m, dys)
    psi_p, psi_m = psi_pm(ts, +1, p), psi_pm(ts, -1, p)
    phi_p, phi_m = _apply(eta, psi_p), _apply(eta, psi_m)
    e_plus, e_minus = energy_expectation(ts, +1, p), energy_expectation(ts, -1, p)

    dets = det(rho).real
    h_herm = hermiticity_residual(h)
    flow_residual = frobenius_norm(mul(dagger(h1m), rho) - mul(rho, h1m) - 1j * rho_closed_dot(ts, p))
    eta_sq = frobenius_norm(mul(eta, eta) - rho)
    dyson_rel = frobenius_norm(hermitian_counterpart(h1m, dys) - h)
    qh_tilde = quasi_hermiticity_residual(h_tilde, rho)
    qh_raw = quasi_hermiticity_residual(h1m, rho)
    ip = lambda a, b: _braket(a, rho, b)
    ip_unit = np.concatenate([ip(psi_p, psi_p) - 1.0, ip(psi_m, psi_m) - 1.0])
    ip_cross = np.concatenate([ip(psi_m, psi_p) - 1j * p.gamma, ip(psi_p, psi_m) + 1j * p.gamma])
    psi_resid = phi_resid = energy_h = energy_metric = 0.0
    for psi, phi, energy, e_t in ((psi_p, phi_p, e_p, e_plus), (psi_m, phi_m, e_m, e_minus)):
        resid = np.linalg.norm(_apply(h1m, psi) - energy * psi, axis=1)
        psi_resid = max(psi_resid, float(np.max(resid)))
        # phi = eta Psi solves the Hermitian equation; the derivative is analytic
        d_phi = _apply(dys.eta_dot, psi) - 1j * energy * _apply(eta, psi)
        resid = np.linalg.norm(_apply(h, phi) - 1j * d_phi, axis=1)
        phi_resid = max(phi_resid, float(np.max(resid)))
        e_h = _braket(phi, h, phi).real
        energy_h = max(energy_h, float(np.max(np.abs(e_h - e_t))))
        e_metric = _braket(psi, rho, _apply(h_tilde, psi)).real
        energy_metric = max(energy_metric, float(np.max(np.abs(e_metric - e_t))))
    # propagator checks: identity at the anchor, unitarity, TDSE by central differences
    u_t0 = u_closed(p.t0, p)
    fd_step = 1e-6
    t_sub = ts[_subsample(len(ts))]
    du = (u_closed(t_sub + fd_step, p) - u_closed(t_sub - fd_step, p)) / (2.0 * fd_step)
    u_tdse = float(np.max(frobenius_norm(mul(rabi_h(t_sub, p), u_closed(t_sub, p)) - 1j * du)))
    u_unitarity = _unitarity(u)
    basis = basis_states(p)
    basis_error = max(np.linalg.norm(basis.phi1 - IDENTITY[0]), np.linalg.norm(basis.phi2 - IDENTITY[1]))
    endpoint = max(
        abs(energy_expectation(p.t0, +1, p) - e_p),
        abs(energy_expectation(p.t0, -1, p) - e_m),
        abs(energy_expectation(-p.t0, +1, p) - 0.5 * (p.phi**3 - p.omega)),
        abs(energy_expectation(-p.t0, -1, p) - 0.5 * (-p.phi**3 - p.omega)),
    )

    checks = [
        Check("metric_hermitian", float(np.max(hermiticity_residual(rho))), 1e-12),
        Check("metric_flow_residual", float(np.max(flow_residual)), 1e-10),
        Check("det_rho_constant", float(np.max(np.abs(dets - det_ref))), 1e-10),
        Check("eta_squared_matches_rho", float(np.max(eta_sq)), 1e-10),
        Check("eta_hermitian", float(np.max(hermiticity_residual(eta))), 1e-12),
        Check("h_hermitian", float(np.max(h_herm)), 1e-12),
        Check("dyson_relation", float(np.max(dyson_rel)), 1e-9),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-9),
        Check("h1_not_quasi_hermitian", float(np.min(qh_raw)), 1e-2, mode="min_gt"),
        Check("inner_product_unit", float(np.max(np.abs(ip_unit))), 1e-9),
        Check("inner_product_cross", float(np.max(np.abs(ip_cross))), 1e-9),
        Check("psi_tdse_residual", psi_resid, 1e-12),
        Check("phi_tdse_residual", phi_resid, 1e-8),
        Check("u_identity_at_anchor", float(np.linalg.norm(u_t0 - IDENTITY)), 1e-12),
        Check("u_unitary", float(np.max(u_unitarity)), 1e-12),
        Check("u_tdse_residual", u_tdse, 1e-8),
        Check("basis_reconstruction", float(basis_error), 1e-10),
        Check("energy_matches_h_expectation", energy_h, 1e-9),
        Check("energy_matches_metric_expectation", energy_metric, 1e-9),
        Check("energy_endpoint_values", float(endpoint), 1e-12),
    ]
    invariants = {
        "det_deviation": np.abs(dets - det_ref),
        "eta_sq_residual": eta_sq,
        "h_hermiticity": h_herm,
        "htilde_quasi_hermiticity": qh_tilde,
        "u_unitarity": u_unitarity,
    }
    series = _series(
        ts, lambda: _metric_columns(rho, dets), eta, h, invariants,
        u=u, energies=lambda: {"E_plus": e_plus, "E_minus": e_minus},
    )
    return VerificationReport(cfg.scenario, tuple(checks)), series


def _yang_lee_numeric(cfg: ScenarioConfig):
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    grid = _resolve_window(cfg)
    ts = grid.times
    h1m = h1_matrix(p)
    det_ref = p.phi**4 / p.gamma**2

    flow = integrate_metric(h1_su2(p), rho_closed(grid.t_start, p), grid)
    rho_num = flow.series.samples
    dys = dyson_from_metric(flow.series)
    h_num = hermitian_counterpart(h1m, dys)
    h_tilde = physical_hamiltonian(h1m, dys)
    u_num = propagator_series(lambda t: rabi_h(t, p), grid).samples
    u_ref = mul(u_closed(ts, p), dagger(u_closed(grid.t_start, p)))

    dets = det(rho_num).real
    dev_metric = frobenius_norm(rho_num - rho_closed(ts, p))
    dev_eta = frobenius_norm(dys.eta - eta_closed(ts, p).eta)
    dev_h = frobenius_norm(h_num - rabi_h(ts, p))
    dev_u = frobenius_norm(u_num - u_ref)
    unitarity = _unitarity(u_num)
    qh_tilde = quasi_hermiticity_residual(h_tilde, rho_num)

    # the non-Hermitian-picture propagator keeps rho norms but not flat ones
    sub = _subsample(len(ts))
    u_big = mul(mul(dys.eta_inverse[sub], u_num[sub]), dys.eta[0])
    nonunitarity = float(np.max(_unitarity(u_big)))
    inner_drift = 0.0
    for sgn in (+1, -1):
        moved = _apply(u_big, psi_pm(grid.t_start, sgn, p))
        inner = _braket(moved, rho_num[sub], moved)
        inner_drift = max(inner_drift, float(np.max(np.abs(inner - 1.0))))

    checks = [
        Check("metric_numeric_vs_closed", float(np.max(dev_metric)), 1e-8),
        Check("metric_hermitian", float(np.max(hermiticity_residual(rho_num))), 1e-10),
        Check("det_rho_drift", float(np.max(np.abs(dets - det_ref))), 1e-8),
        Check("positivity_maintained", float(np.min(dets)), 0.0, mode="min_gt"),
        Check("eta_numeric_vs_closed", float(np.max(dev_eta)), 1e-8),
        Check("h_numeric_vs_closed", float(np.max(dev_h)), 1e-6),
        Check("h_hermitian", float(np.max(hermiticity_residual(h_num))), 1e-6),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-6),
        Check("u_numeric_vs_closed", float(np.max(dev_u)), 1e-7),
        Check("u_unitary", float(np.max(unitarity)), 1e-9),
        Check("rho_inner_preserved", inner_drift, 1e-7),
        Check("nonunitary_flat_metric", nonunitarity, 1e-2, mode="min_gt"),
    ]

    def energies():
        out = {}
        for name, sgn in (("E_plus", +1), ("E_minus", -1)):
            phi = _apply(dys.eta, psi_pm(ts, sgn, p))
            out[name] = _braket(phi, h_num, phi).real
        return out

    invariants = {
        "metric_vs_closed": dev_metric,
        "det_deviation": np.abs(dets - det_ref),
        "eta_vs_closed": dev_eta,
        "h_vs_closed": dev_h,
        "u_vs_closed": dev_u,
        "u_unitarity": unitarity,
        "htilde_quasi_hermiticity": qh_tilde,
    }
    series = _series(
        ts, lambda: _metric_columns(rho_num, dets), dys.eta, h_num, invariants,
        u=u_num, energies=energies,
    )
    return VerificationReport(cfg.scenario, tuple(checks)), series


# ----------------------------------------------------------------------
# Generic SU(2) pipeline
# ----------------------------------------------------------------------

def _su2_config(cfg: ScenarioConfig):
    h = SU2Hamiltonian(
        kappa0=cfg.kappa0,
        lambda0=cfg.lambda0,
        kappa_vec=cfg.kappa_vec,
        lambda_vec=cfg.lambda_vec,
    )
    zeta = ZetaConstants(*(cfg.zeta_constants or (0.0, 0.0, -1.0, 0.0)))
    k2, l2 = _require_flow_solvable(h, need_real_frequency=True)
    return h, zeta, 2.0 * math.pi / math.sqrt(k2 - l2)


def _su2_generic(cfg: ScenarioConfig):
    h, zeta, _period = _su2_config(cfg)
    grid = _resolve_window(cfg)
    ts = grid.times
    hm = h.matrix()

    alpha, beta = zeta_coefficients(ts, h, zeta)
    rho_ref = pauli_compose(PauliCoefficients(alpha, *beta.T))
    margins = alpha**2 - _dot3(beta, beta)
    flow = integrate_metric(h, rho_ref[0], grid)
    rho_num = flow.series.samples
    dys = dyson_from_metric(flow.series)
    h_num = hermitian_counterpart(hm, dys)
    h_tilde = physical_hamiltonian(hm, dys)

    h_herm = hermiticity_residual(h_num)
    dets = det(rho_num).real
    dev_metric = frobenius_norm(rho_num - rho_ref)
    eta_sq = frobenius_norm(mul(dys.eta, dys.eta) - rho_num)
    qh_tilde = quasi_hermiticity_residual(h_tilde, rho_num)

    # coefficient-flow residual of the closed form, via fourth-order differences
    fd = 1e-3
    sub = _subsample(len(ts), want=50)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = (
        zeta_coefficients(ts[sub] + k * fd, h, zeta) for k in (-2, -1, 1, 2)
    )
    alpha_dot = (a0 - 8 * a1 + 8 * a2 - a3) / (12 * fd)
    beta_dot = (b0 - 8 * b1 + 8 * b2 - b3) / (12 * fd)
    r_alpha = np.abs(alpha_dot + _dot3(beta[sub], h.lambda_vec))
    r_beta = beta_dot - (np.cross(h.kappa_vec, beta[sub]) - alpha[sub, None] * h.lambda_vec)
    flow_resid = float(max(np.max(r_alpha), np.max(np.sqrt(_dot3(r_beta, r_beta)))))

    checks = [
        Check("metric_flow_residual_fd", flow_resid, 1e-9),
        Check("metric_numeric_vs_closed", float(np.max(dev_metric)), 1e-8),
        Check("metric_hermitian", float(np.max(hermiticity_residual(rho_num))), 1e-10),
        Check("det_rho_drift", float(np.max(np.abs(dets - margins))), 1e-8),
        Check("positivity_maintained", float(np.min(dets)), 0.0, mode="min_gt"),
        Check("eta_squared_matches_rho", float(np.max(eta_sq)), 1e-10),
        Check("h_hermitian", float(np.max(h_herm)), 1e-6),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-6),
    ]
    if not np.any(h.lambda_vec):
        checks.append(Check("h_matches_static_h", float(np.max(frobenius_norm(h_num - hm))), 1e-6))

    u = energies = None
    if any(o in cfg.outputs for o in ("propagator", "states", "energies")):
        u = propagator_series(_su2_h_source(h, zeta), grid).samples
        # the columns of u are the evolved basis states
        energies = lambda: {f"E_{k + 1}": _braket(u[:, :, k], h_num, u[:, :, k]).real for k in (0, 1)}
        checks.append(Check("u_unitary", float(np.max(_unitarity(u))), 1e-9))

    invariants = {
        "metric_vs_closed": dev_metric,
        "det_deviation": np.abs(dets - margins),
        "eta_sq_residual": eta_sq,
        "h_hermiticity": h_herm,
        "htilde_quasi_hermiticity": qh_tilde,
    }
    series = _series(
        ts, lambda: (alpha, *beta.T, dets), dys.eta, h_num, invariants, u=u, energies=energies
    )
    return VerificationReport(cfg.scenario, tuple(checks)), series


def _su2_h_source(h: SU2Hamiltonian, zeta: ZetaConstants):
    """Exact Hermitian Hamiltonian source of the closed-form metric, batched in t.

    Given a 1-D array of times, the source evaluates the zeta_metric
    coefficients at all of them and returns the (m, 2, 2) stack of
    hermitian_counterpart. rho_dot is the flow -i (H^dag rho - rho H)
    itself, eta = sqrt(rho) the closed-form root and eta_dot its analytic
    derivative, the solution of eta X + X eta = rho_dot; no step is a finite
    difference.
    """
    hm = h.matrix()

    def source(t):
        alpha, beta = zeta_coefficients(t, h, zeta)
        rho = pauli_compose(PauliCoefficients(alpha, *beta.T))
        eta = hermitian_sqrt(rho)
        eta_dot = hermitian_sqrt_derivative(eta, metric_rhs(h, rho))
        return hermitian_counterpart(hm, DysonSample(t=t, eta=eta, eta_dot=eta_dot))

    return source


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------

_PIPELINES = {
    "yang-lee-closed": _yang_lee_closed,
    "yang-lee-numeric": _yang_lee_numeric,
    "su2-generic": _su2_generic,
}


def _out_dir(cfg: ScenarioConfig) -> Path:
    """The output directory, created; called before any work that writes to it."""
    out_dir = Path(cfg.out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"out_path {cfg.out_path!r} cannot be used as a directory: {exc}") from exc
    return out_dir


def run_scenario(cfg: ScenarioConfig, write_files: bool = True):
    """Execute a scenario, optionally writing requested series plus report.json.

    Pipelines return each series as a build function; tables are built
    only for the requested outputs. One writer emits every requested
    table, its rows cut over the usable CPUs (see _write_tables);
    report.json is written last, by this process.
    """
    out_dir = _out_dir(cfg) if write_files else None
    report, series = _PIPELINES[cfg.scenario](cfg)
    written = []
    if write_files:
        names = [name for name in cfg.outputs if name in series]
        unique = list(dict.fromkeys(names))  # a name listed twice is written once
        tables = [(name, *series[name]()) for name in unique]
        path_of = dict(zip(unique, _write_tables(out_dir, tables, cfg, _usable_cpus())))
        written = [path_of[name] for name in names]
        report_payload = {"metadata": _metadata(cfg), "report": report.to_dict()}
        written.append(_write_json(out_dir / "report.json", report_payload))
    return report, written


def _sweep_row(cfg: ScenarioConfig):
    """One sweep row, read from the numeric scenario's report over the sweep window.

    Yang-Lee configs run yang-lee-numeric, su2-generic configs themselves,
    without propagator outputs. The window honours t_start and t_end; left
    open, it spans one natural period, half the default window of ``run``.
    Returns the minimum positivity margin, the maximum quasi-Hermiticity
    residual, and the larger of the metric and propagator closed-vs-numeric
    deviations (the propagator one where the scenario reports it).
    """
    scenario = "su2-generic" if cfg.scenario == "su2-generic" else "yang-lee-numeric"
    cfg = replace(cfg, scenario=scenario, outputs=())
    grid = _resolve_window(cfg, periods=1)
    report, _ = _PIPELINES[scenario](replace(cfg, t_start=grid.t_start, t_end=grid.t_end))
    value = {c.name: c.value for c in report.checks}
    deviations = ("metric_numeric_vs_closed", "u_numeric_vs_closed")
    return (
        value["positivity_maintained"],
        value["htilde_quasi_hermitian"],
        max(value[name] for name in deviations if name in value),
    )


def sweep(cfg: ScenarioConfig, parameter: str, values, write_files: bool = True):
    """One numeric run per parameter value, over the usable CPUs; rows ordered by ascending value."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigInvalid(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    if cfg.scenario == "su2-generic" and parameter != "dt":
        raise ConfigInvalid(f"su2-generic sweeps only dt; it does not read {parameter}")
    if not values:
        raise ConfigInvalid("sweep needs at least one value")
    values = sorted(_as_float(v, parameter) for v in values)
    out_dir = _out_dir(cfg) if write_files else None
    rows = _fork_map(
        lambda value: [value, *_sweep_row(validate_config(replace(cfg, **{parameter: value})))],
        values,
    )
    header = [
        parameter,
        "min_positivity_margin",
        "max_quasi_hermiticity_residual",
        "max_closed_vs_numeric_deviation",
    ]
    written = []
    if write_files:
        written.append(_write_series(out_dir, f"sweep_{parameter}", header, rows, cfg))
    return header, rows, written


# ----------------------------------------------------------------------
# Argument parsing and entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonflow",
        description="Metric flows, Dyson maps and propagators for SU(2) non-Hermitian models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, blurb in (
        ("run", "run a scenario, write series files and a report"),
        ("verify", "run the checks only, write nothing"),
        ("sweep", "run one reduced scenario per parameter value"),
    ):
        sp = sub.add_parser(verb, help=blurb)
        sp.add_argument("config", help="path to the JSON scenario config")
        sp.add_argument("--gamma", type=float, default=None, help="override gamma")
        sp.add_argument("--omega", type=float, default=None, help="override omega")
        sp.add_argument("--dt", type=float, default=None, help="override the time step")
        sp.add_argument("--out", default=None, help="override the output directory")
        if verb == "sweep":
            sp.add_argument("--param", required=True, choices=SWEEP_PARAMS)
            sp.add_argument("--values", required=True, help="comma-separated list of values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "gamma": args.gamma,
        "omega": args.omega,
        "dt": args.dt,
        "out_path": args.out,
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError as exc:
                raise ConfigInvalid(f"cannot parse sweep values {args.values!r}") from exc
            header, rows, written = sweep(cfg, args.param, values)
            print("  ".join(f"{name:>32}" for name in header))
            for row in rows:
                print("  ".join(f"{x:32.17g}" for x in row))
            for path in written:
                print(f"wrote {path}")
            return 0
        report, written = run_scenario(cfg, write_files=(args.command == "run"))
        print(report.format())
        for path in written:
            print(f"wrote {path}")
        return 0 if report.overall_pass else 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DysonflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
