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

Every kernel is called on a stack of samples, never once per sample. The
closed scenario is one pass over (n, 2, 2) stacks of the whole time grid.
The two numeric scenarios are one pipeline, _numeric: yang-lee-numeric is
su2-generic on H1 with the canonical metric constants, plus its Yang-Lee
oracles. It runs in chunks of CHUNK_STEPS = 8,000 steps: each chunk
continues the RK4 solutions of the one before and forms its own Dyson
maps, closed forms and checks. The checks fold into one report, and
only the rows of the tables ``run`` writes are kept, so the peak memory of
``verify`` no longer grows with the window. A window of at most one chunk
is one pass, with the same bits.

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
    DysonSample,
    dyson_from_metric,
    hermitian_counterpart,
    physical_hamiltonian,
    quasi_hermiticity_residual,
)
from .errors import ConfigInvalid, DysonflowError, StepTooLarge, UnsupportedHamiltonian
from .metric import (
    SU2Hamiltonian,
    ZetaConstants,
    _dot3,
    _require_flow_solvable,
    integrate_metric_from,
    metric_rhs,
    positivity_margin,
    zeta_metric,
    zeta_metric_dot,
)
from .propagate import evolve_state
from .series import IntegrationGrid
from .su2 import (
    IDENTITY,
    dagger,
    det,
    frobenius_norm,
    hermitian_sqrt,
    hermitian_sqrt_derivative,
    hermiticity_residual,
    mul,
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
    theta_dot,
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
    if cfg.scenario.startswith("yang-lee"):
        try:
            p = YangLeeParams(gamma=gamma, omega=omega)
        except ValueError as exc:
            raise ConfigInvalid(f"Yang-Lee scenarios: {exc}") from exc
    zeta = cfg.zeta_constants
    if zeta is not None:
        if not isinstance(zeta, (list, tuple)) or len(zeta) != 4:
            raise ConfigInvalid("zeta_constants must be a 4-element list")
        zeta = tuple(_as_float(x, "zeta_constants") for x in zeta)
    if cfg.scenario.startswith("yang-lee") and zeta is not None:
        # the Yang-Lee oracle chain (eta, h, u) exists only for the canonical
        # metric family; other constants belong to the su2-generic scenario
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
    periods after the start. A window of at most half a step is refused,
    not widened to one step.
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
    n = round(span / cfg.dt)
    if n == 0:
        raise ConfigInvalid(f"the window spans at most half a dt step (span {span:.6g}, dt {cfg.dt:.6g})")
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
    """The columns of a complex (n, ...) stack: the re/im parts of each entry, row-major, as 1-D views."""
    return [part for entry in c.reshape(len(c), -1).T for part in (entry.real, entry.imag)]


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
    return (*(c.real for c in pauli_decompose(rho)), dets)


def _chain_columns(hm, rho, dys: DysonSample, h, det_closed):
    """det rho, Htilde and the residuals of the chain rho -> eta -> (h, Htilde) that every scenario checks.

    The residuals are invariant columns: det_deviation |det rho -
    det_closed|, eta_sq_residual |eta^2 - rho|, h_hermiticity of h, and
    htilde_quasi_hermiticity of Htilde = H + i eta^-1 eta_dot for the
    static ``hm``.
    """
    dets = det(rho).real
    h_tilde = physical_hamiltonian(hm, dys)
    return dets, h_tilde, {
        "det_deviation": np.abs(dets - det_closed),
        "eta_sq_residual": frobenius_norm(mul(dys.eta, dys.eta) - rho),
        "h_hermiticity": hermiticity_residual(h),
        "htilde_quasi_hermiticity": quasi_hermiticity_residual(h_tilde, rho),
    }


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
# Numeric runs in chunks
# ----------------------------------------------------------------------

# Steps per chunk of a numeric run, so that its memory does not grow with the
# window. A multiple of the 100-step stride of the RK4 local error checks, so
# every chunk checks the steps a one-chunk run checks.
CHUNK_STEPS = 8_000

# the numeric check whose value is a least sample; every other value is a greatest one
_LEAST = ("positivity_maintained",)


def _times(grid: IntegrationGrid, lo: int, hi: int) -> np.ndarray:
    """The times of grid rows lo .. hi - 1, each t_start + dt * k as in grid.times."""
    return grid.t_start + grid.dt * np.arange(lo, hi)


def _rows_in(picked: np.ndarray, rows: slice) -> np.ndarray:
    """The grid rows of ``picked`` that lie in ``rows``, counted from its start."""
    return picked[(picked >= rows.start) & (picked < rows.stop)] - rows.start


def _peak(values) -> float:
    """The largest value, NaN if one is NaN, and -inf for none (a chunk without a subsampled row)."""
    return float(np.max(values, initial=-np.inf))


def _numeric_chunks(grid: IntegrationGrid, h: SU2Hamiltonian, rho0, source=None):
    """The metric flow, Dyson map and propagator over the grid, in chunks of CHUNK_STEPS steps.

    Yields (rows, ts, rho, dys, u) for each chunk: the slice of grid rows it
    holds, their times, the integrated metric, its DysonSample (eta_dot from
    the flow) and u(t, t_start) of the Hermitian ``source``, or None without
    one. A chunk starts on the last row of the chunk before it and yields the
    rows after that one. It continues the RK4 solutions of that chunk from
    their last values, never from a closed form: the metric's A through
    integrate_metric_from and u through evolve_state, so the local error
    checks see the A and u of one pass. The first chunk starts both from the
    identity, as integrate_metric and propagator_series do, so a window of
    at most CHUNK_STEPS steps is one pass over the whole grid, with its bits.

    Errors are raised as one pass raises them. The metric and its Dyson map
    come before the propagator, so once the propagator's local error check
    fails, only they run on through the chunks left; a StepTooLarge or
    NotPositiveDefinite among them is raised instead of the propagator's.
    """
    n, a_end, u_end = grid.n_steps, IDENTITY, IDENTITY
    failed = None  # the propagator's StepTooLarge, raised once the metric has run to the end
    for lo in range(0, n, CHUNK_STEPS):
        hi = min(lo + CHUNK_STEPS, n)
        start = grid.t_start + grid.dt * lo
        part = grid if hi - lo == n else IntegrationGrid(start, start + grid.dt * (hi - lo), grid.dt)
        own = slice(1 if lo else 0, None)
        flow, a_end = integrate_metric_from(h, rho0, a_end, part)
        rho, dys = flow.series.samples[own], dyson_from_metric(flow)[own]
        del flow  # only the rows yielded stay alive: each del here lowers the peak RSS
        if failed is not None:
            continue
        u = None
        if source is not None:
            try:
                u = evolve_state(source, u_end, part).samples[own]
            except StepTooLarge as exc:
                failed = exc
                continue
            u_end = u[-1].copy()
        rows = slice(lo + own.start, hi + 1)
        yield rows, _times(grid, rows.start, rows.stop), rho, dys, u
        del rho, dys, u  # before the next chunk is formed
    if failed is not None:
        raise failed


def _reduce_checks(checks, more):
    """Fold a chunk's checks into those of the chunks before it, name by name.

    positivity_maintained keeps the least value, every other check the
    greatest; a NaN in either stays.
    """
    return [
        replace(a, value=float((np.minimum if a.name in _LEAST else np.maximum)(a.value, b.value)))
        for a, b in zip(checks, more, strict=True)
    ]


def _gather(gathered, series, names, rows: slice, n: int):
    """Copy one chunk's rows of the tables ``names`` into float columns of the whole grid.

    ``gathered`` is None on the first chunk, which allocates the columns;
    returns (columns, layout), with layout the (name, header, column indices)
    of every table the chunk's ``series`` has. A column that tables share in
    the chunk (t, the propagator's) is one column, which _write_tables
    formats once.
    """
    tables = [(name, *series[name]()) for name in names if name in series]
    distinct = {}
    for _, _, cols in tables:
        for col in cols:
            distinct.setdefault(id(col), (len(distinct), col))
    if gathered is None:
        layout = [(name, header, [distinct[id(col)][0] for col in cols]) for name, header, cols in tables]
        gathered = [np.empty(n) for _ in distinct], layout
    for k, col in distinct.values():
        gathered[0][k][rows] = col
    return gathered


def _run_chunks(scenario: str, grid: IntegrationGrid, chunks, step, tables):
    """A numeric pipeline's report and series, from ``step`` on each of its ``chunks``.

    ``step(rows, ts, rho, dys, u)`` returns one chunk's checks and its
    series (see _series), and the checks of all chunks fold into one report
    (_reduce_checks). Only the rows of the named ``tables`` are kept,
    gathered chunk by chunk (_gather); each chunk's other arrays go before
    the next chunk is formed.
    """
    checks = gathered = None
    for rows, ts, *state in chunks:
        more, series = step(rows, ts, *state)
        checks = more if checks is None else _reduce_checks(checks, more)
        gathered = _gather(gathered, series, tables, rows, grid.n_steps + 1)
        del state, ts, more, series  # before the next chunk is formed
    columns, layout = gathered
    series = {
        name: (lambda header=header, idx=idx: (header, [columns[k] for k in idx]))
        for name, header, idx in layout
    }
    return VerificationReport(scenario, tuple(checks)), series


# ----------------------------------------------------------------------
# The closed Yang-Lee pipeline
# ----------------------------------------------------------------------

def _yang_lee_closed(cfg: ScenarioConfig, tables):
    # every table of the closed forms is built lazily, on the whole grid
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    ts = _resolve_window(cfg).times
    h1m = h1_matrix(p)
    e_p, e_m = eigenvalues_h1(p)

    rho = rho_closed(ts, p)
    dys = eta_closed(ts, p)
    eta = dys.eta
    h = rabi_h(ts, p)
    u = u_closed(ts, p)
    dets, h_tilde, chain = _chain_columns(h1m, rho, dys, h, p.phi**4 / p.gamma**2)
    psi_p, psi_m = psi_pm(ts, +1, p), psi_pm(ts, -1, p)
    phi_p, phi_m = _apply(eta, psi_p), _apply(eta, psi_m)
    e_plus, e_minus = energy_expectation(ts, +1, p), energy_expectation(ts, -1, p)

    flow_residual = frobenius_norm(mul(dagger(h1m), rho) - mul(rho, h1m) - 1j * rho_closed_dot(ts, p))
    dyson_rel = frobenius_norm(hermitian_counterpart(h1m, dys) - h)
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
    # propagator checks: identity at the anchor, unitarity, TDSE with du/dt = i diag(theta', omega - theta') u
    u_t0 = u_closed(p.t0, p)
    sub = _subsample(len(ts))
    rate = theta_dot(ts[sub], p)
    du = 1j * np.stack([rate, p.omega - rate], axis=-1)[..., None] * u[sub]
    u_tdse = float(np.max(frobenius_norm(mul(rabi_h(ts[sub], p), u[sub]) - 1j * du)))
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
        Check("det_rho_constant", float(np.max(chain["det_deviation"])), 1e-10),
        Check("eta_squared_matches_rho", float(np.max(chain["eta_sq_residual"])), 1e-10),
        Check("eta_hermitian", float(np.max(hermiticity_residual(eta))), 1e-12),
        Check("h_hermitian", float(np.max(chain["h_hermiticity"])), 1e-12),
        Check("dyson_relation", float(np.max(dyson_rel)), 1e-9),
        Check("htilde_quasi_hermitian", float(np.max(chain["htilde_quasi_hermiticity"])), 1e-9),
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
    series = _series(
        ts, lambda: _metric_columns(rho, dets), eta, h, {**chain, "u_unitarity": u_unitarity},
        u=u, energies=lambda: {"E_plus": e_plus, "E_minus": e_minus},
    )
    return VerificationReport(cfg.scenario, tuple(checks)), series


# ----------------------------------------------------------------------
# The numeric pipeline
# ----------------------------------------------------------------------

def _numeric(cfg: ScenarioConfig, tables, h: SU2Hamiltonian, zeta: ZetaConstants, source, oracle=None):
    """The numeric pipeline of a static H whose closed-form metric is zeta_metric(t, h, zeta).

    The metric starts at the closed form's rho(t_start) and runs through
    _numeric_chunks with the Hermitian ``source`` of the propagator, or
    None for no propagator. Each chunk forms h and Htilde, and checks the
    metric against the closed form, its flow against the closed form's
    analytic derivative, det rho, positivity, eta^2 = rho and the
    Hermiticity of h and quasi-Hermiticity of Htilde, and the unitarity of
    u. ``oracle(rows, ts, rho, dys, u, h_num, unitarity)``, given, returns
    the chunk's further (checks, invariant columns, energies build), the
    energies replacing those of the evolved basis states.
    """
    grid = _resolve_window(cfg)
    hm = h.matrix()
    sub = _subsample(grid.n_steps + 1, want=50)

    def chunk(rows, ts, rho_num, dys, u):
        ref = zeta_metric(ts, h, zeta)
        h_num = hermitian_counterpart(hm, dys)
        dets, _h_tilde, chain = _chain_columns(hm, rho_num, dys, h_num, positivity_margin(ref))
        dev_metric = frobenius_norm(rho_num - ref.matrix())

        # coefficient-flow residual of the closed form, with its analytic derivative
        at = _rows_in(sub, rows)
        alpha, beta, rate = ref.alpha[at], ref.beta_vec[at], zeta_metric_dot(ts[at], h, zeta)
        r_alpha = np.abs(rate.alpha + _dot3(beta, h.lambda_vec))
        r_beta = rate.beta_vec - (np.cross(h.kappa_vec, beta) - alpha[:, None] * h.lambda_vec)
        flow_resid = max(_peak(r_alpha), _peak(np.sqrt(_dot3(r_beta, r_beta))))

        checks = [
            Check("metric_flow_residual_fd", flow_resid, 1e-9),
            Check("metric_numeric_vs_closed", float(np.max(dev_metric)), 1e-8),
            Check("metric_hermitian", float(np.max(hermiticity_residual(rho_num))), 1e-10),
            Check("det_rho_drift", float(np.max(chain["det_deviation"])), 1e-8),
            Check("positivity_maintained", float(np.min(dets)), 0.0, mode="min_gt"),
            Check("eta_squared_matches_rho", float(np.max(chain["eta_sq_residual"])), 1e-10),
            Check("h_hermitian", float(np.max(chain["h_hermiticity"])), 1e-6),
            Check("htilde_quasi_hermitian", float(np.max(chain["htilde_quasi_hermiticity"])), 1e-6),
        ]
        if not np.any(h.lambda_vec):
            checks.append(Check("h_matches_static_h", float(np.max(frobenius_norm(h_num - hm))), 1e-6))

        energies = unitarity = None
        if u is not None:
            # the columns of u are the evolved basis states
            energies = lambda: {f"E_{k + 1}": _braket(u[:, :, k], h_num, u[:, :, k]).real for k in (0, 1)}
            unitarity = _unitarity(u)
            checks.append(Check("u_unitary", float(np.max(unitarity)), 1e-9))

        invariants = {"metric_vs_closed": dev_metric, **chain}
        if oracle is not None:
            more, columns, energies = oracle(rows, ts, rho_num, dys, u, h_num, unitarity)
            checks += more
            invariants.update(columns)
        series = _series(
            ts, lambda: _metric_columns(rho_num, dets), dys.eta, h_num, invariants, u=u, energies=energies
        )
        return checks, series

    rho0 = zeta_metric(grid.t_start, h, zeta).matrix()
    return _run_chunks(cfg.scenario, grid, _numeric_chunks(grid, h, rho0, source), chunk, tables)


def _su2_config(cfg: ScenarioConfig):
    h = SU2Hamiltonian(
        kappa0=cfg.kappa0,
        lambda0=cfg.lambda0,
        kappa_vec=cfg.kappa_vec,
        lambda_vec=cfg.lambda_vec,
    )
    zeta = ZetaConstants(*(cfg.zeta_constants or (0.0, 0.0, -1.0, 0.0)))
    k2, l2 = _require_flow_solvable(h)
    return h, zeta, 2.0 * math.pi / math.sqrt(k2 - l2)


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
        rho = zeta_metric(t, h, zeta).matrix()
        eta = hermitian_sqrt(rho)
        eta_dot = hermitian_sqrt_derivative(eta, metric_rhs(h, rho))
        return hermitian_counterpart(hm, DysonSample(t=t, eta=eta, eta_dot=eta_dot))

    return source


def _su2_generic(cfg: ScenarioConfig, tables):
    h, zeta, _period = _su2_config(cfg)
    propagate = any(o in cfg.outputs for o in ("propagator", "states", "energies"))
    return _numeric(cfg, tables, h, zeta, _su2_h_source(h, zeta) if propagate else None)


def _yang_lee_numeric(cfg: ScenarioConfig, tables):
    """_numeric on H1 and its closed-form metric, rabi_h driving the propagator, plus the Yang-Lee oracles.

    The oracles check eta, h and u against their closed forms, and that the
    non-Hermitian-picture propagator eta^-1 u eta(t_start) keeps rho norms
    but not flat ones; the energies are <phi_pm| h |phi_pm> of
    phi_pm = eta psi_pm.
    """
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    grid = _resolve_window(cfg)
    u_start = dagger(u_closed(grid.t_start, p))
    psi_start = [psi_pm(grid.t_start, sgn, p) for sgn in (+1, -1)]
    sub = _subsample(grid.n_steps + 1)
    eta_start = None

    def oracle(rows, ts, rho_num, dys, u_num, h_num, unitarity):
        nonlocal eta_start
        if eta_start is None:
            eta_start = dys.eta[0].copy()
        dev_eta = frobenius_norm(dys.eta - eta_closed(ts, p).eta)
        dev_h = frobenius_norm(h_num - rabi_h(ts, p))
        dev_u = frobenius_norm(u_num - mul(u_closed(ts, p), u_start))

        # the non-Hermitian-picture propagator keeps rho norms but not flat ones
        at = _rows_in(sub, rows)
        u_big = mul(mul(dys.eta_inverse[at], u_num[at]), eta_start)
        nonunitarity = _peak(_unitarity(u_big))
        inner_drift = 0.0
        for psi in psi_start:
            moved = _apply(u_big, psi)
            inner = _braket(moved, rho_num[at], moved)
            inner_drift = max(inner_drift, _peak(np.abs(inner - 1.0)))

        checks = [
            Check("eta_numeric_vs_closed", float(np.max(dev_eta)), 1e-8),
            Check("h_numeric_vs_closed", float(np.max(dev_h)), 1e-6),
            Check("u_numeric_vs_closed", float(np.max(dev_u)), 1e-7),
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
            "eta_vs_closed": dev_eta,
            "h_vs_closed": dev_h,
            "u_vs_closed": dev_u,
            "u_unitarity": unitarity,
        }
        return checks, invariants, energies

    return _numeric(cfg, tables, h1_su2(p), rho_closed_constants(p), lambda t: rabi_h(t, p), oracle)


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
    only for the requested outputs. A numeric scenario runs in chunks of
    CHUNK_STEPS steps (see _run_chunks) and keeps the rows of the requested
    outputs alone, and of none for ``verify``, whose peak memory therefore
    does not grow with the window. One writer emits
    every requested table, its rows cut over the usable CPUs (see
    _write_tables); report.json is written last, by this process.
    """
    out_dir = _out_dir(cfg) if write_files else None
    report, series = _PIPELINES[cfg.scenario](cfg, cfg.outputs if write_files else ())
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
    report, _ = _PIPELINES[scenario](replace(cfg, t_start=grid.t_start, t_end=grid.t_end), ())
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
