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

Every kernel is called on a stack of samples, never once per sample. Every
scenario is a step that one loop, _run_chunks, drives over the grid in
chunks of CHUNK_STEPS = 8,000 steps: the step forms the chunk's closed
forms, Dyson maps and checks, the checks fold into one report, and ``run``
writes the chunk's rows of its tables before the next chunk is formed, so
the peak memory of neither verb grows with the window. The closed
scenario's forms are elementwise in t, so its runs keep every bit of one
pass for any chunk size. The two numeric scenarios are one pipeline,
_numeric: yang-lee-numeric is su2-generic on H1 with the canonical metric
constants, plus its Yang-Lee oracles. Each of its chunks continues the
RK4 solutions of the one before; a window of at most one chunk is one
pass, with the same bits.

CSV floats carry 17 significant digits, the bytes of Python's "%.17g";
JSON floats are the shortest repr that round-trips, with NaN and Infinity
spelled as ``json`` spells them. Either way identical configs produce
byte-identical files. ``run`` hands each chunk's rows of the requested
series to one writer, which cuts them into one contiguous range per usable
CPU (at most 16), each process formatting each bit-distinct column of its
range once for all the tables that show it, and appends them to the open
files. A block of rows goes through one numpy kernel for all its columns,
_format.format_g17 for CSV and _format.format_repr for JSON, which leaves
to Python's per-value "%.17g" or repr only the values it cannot decide:
those within 2^-20 of a tie or of an end of their round-trip interval.
``sweep`` computes its values side by side over the usable CPUs. Both go
through ``_parallel._fork_map``, with the same bytes as one process.
"""

import argparse
import json
import math
import operator
import shutil
import sys
import tempfile
import warnings
from collections import namedtuple
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from functools import cache
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
    """Read and validate a JSON config file, then apply flag overrides; su2-generic takes no gamma or omega flag."""
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
            if cfg.scenario == "su2-generic" and key in ("gamma", "omega"):
                raise ConfigInvalid(f"su2-generic takes no --{key}; it does not read {key}")
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
            YangLeeParams(gamma=gamma, omega=omega)
        except ValueError as exc:
            raise ConfigInvalid(f"Yang-Lee scenarios: {exc}") from exc
        # the Yang-Lee oracle chain (eta, h, u) exists only for the canonical
        # metric family, which gamma and omega fix
        if cfg.zeta_constants is not None:
            raise ConfigInvalid("yang-lee scenarios take no zeta_constants; use the su2-generic scenario for them")
    zeta = cfg.zeta_constants
    if zeta is not None:
        if not isinstance(zeta, (list, tuple)) or len(zeta) != 4:
            raise ConfigInvalid("zeta_constants must be a 4-element list")
        zeta = tuple(_as_float(x, "zeta_constants") for x in zeta)
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


# the most steps a window may take: 12,500 chunks of CHUNK_STEPS, hours of
# work for any scenario; a config asking for more cannot finish
MAX_STEPS = 10**8


def _resolve_window(cfg: ScenarioConfig, periods: int = 2):
    """Snap the requested window onto a whole number of dt steps.

    An open start is the scenario's natural one (the anchor time t0 for
    Yang-Lee, 0 for su2-generic), an open end lies ``periods`` natural
    periods after the start. A window of at most half a step is refused,
    not widened to one step, and so is a dt at or below the spacing of
    floats at the window's ends, where t_start + k dt stop being distinct,
    and a window of more than MAX_STEPS steps.
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
    spacing = max(math.ulp(t_start), math.ulp(t_start + span))
    if cfg.dt <= spacing:
        raise ConfigInvalid(
            f"dt {cfg.dt:.6g} is at or below the spacing {spacing:.6g} of floats at the window's ends, "
            "where t_start + k dt stop being distinct"
        )
    n = round(span / cfg.dt)
    if n == 0:
        raise ConfigInvalid(f"the window spans at most half a dt step (span {span:.6g}, dt {cfg.dt:.6g})")
    if n > MAX_STEPS:
        raise ConfigInvalid(f"the window takes {n:,} steps of dt {cfg.dt:.6g}, more than the bound of {MAX_STEPS:,}")
    return IntegrationGrid(t_start=t_start, t_end=t_start + n * cfg.dt, dt=cfg.dt)


# ----------------------------------------------------------------------
# Verification report
# ----------------------------------------------------------------------

# each check mode: the ufunc its samples fold by (a NaN stays), its value for none, pass rule and relation
_Mode = namedtuple("_Mode", "fold empty passes relation")
_MODES = {
    "max_le": _Mode(np.maximum, -math.inf, operator.le, "<="),
    "min_gt": _Mode(np.minimum, math.inf, operator.gt, "> "),
    "max_gt": _Mode(np.maximum, -math.inf, operator.gt, "> "),
}


@dataclass(frozen=True)
class Check:
    """One verified invariant: an aggregated residual against its tolerance.

    ``mode``, a key of _MODES, names how the samples fold (Check.of, and
    _reduce_checks over chunks), then how the value passes: "max_le" keeps
    the greatest and passes when it is <= tolerance, "min_gt" keeps the least
    and "max_gt" the greatest, each passing when it is > tolerance. A NaN
    sample stays and fails; an unknown mode raises ValueError.
    """

    name: str
    value: float
    tolerance: float
    mode: str = "max_le"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown check mode {self.mode!r}")

    @classmethod
    def of(cls, name, samples, tolerance, mode="max_le"):
        """The check of ``samples``, an array, a scalar or a list of either, folded as ``mode`` says."""
        check = cls(name, math.nan, tolerance, mode)  # an unknown mode raises here
        fold, empty = _MODES[mode][:2]
        parts = samples if isinstance(samples, list) else [samples]
        value = fold.reduce([fold.reduce(np.ravel(part), initial=empty) for part in parts], initial=empty)
        return replace(check, value=float(value))

    @property
    def passed(self) -> bool:
        return _MODES[self.mode].passes(self.value, self.tolerance)


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
            lines.append(
                f"  {c.name:<{width}}  {c.value:12.5e} {_MODES[c.mode].relation} {c.tolerance:9.2e}  "
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


def _series(ts, metric, eta, h, invariants, u, energies):
    """The output tables of a chunk, as name -> build, build() -> (header, columns).

    A table's columns are 1-D float arrays, t first; a complex stack fills
    eight columns per matrix (or four per state), real part first.
    ``metric`` returns the alpha, beta_x, beta_y, beta_z and det_rho
    columns, ``h`` the stack of h, and ``invariants`` and ``energies`` each a
    name -> column map, so what only those tables show is computed only
    when they are written. Tables that show the same values hold the same
    column objects: every table starts with ``ts``, and states is
    propagator in another order. Every scenario carries its propagator
    stack ``u``, so every table exists for every scenario.
    """

    def matrix(prefix, m):
        return lambda: (["t", *_matrix_header(prefix)], [ts, *_float_columns(m())])

    def table(build):
        return lambda: (["t", *(columns := build())], [ts, *columns.values()])

    u_columns = _float_columns(u)
    # the columns of u are the evolved basis states: phi1 is u_00, u_10 and phi2 is u_01, u_11
    phi = [u_columns[k] for k in (0, 1, 4, 5, 2, 3, 6, 7)]
    return {
        "metric": lambda: (["t", "alpha", "beta_x", "beta_y", "beta_z", "det_rho"], [ts, *metric()]),
        "dyson": matrix("eta", lambda: eta),
        "hermitian_h": matrix("h", h),
        "states": lambda: (["t", *_state_header("phi1"), *_state_header("phi2")], [ts, *phi]),
        "propagator": lambda: (["t", *_matrix_header("u")], [ts, *u_columns]),
        "energies": table(energies),
        "invariants": table(invariants),
    }


def _metric_columns(rho, dets):
    """The metric table's columns of a stack rho: its Pauli split alpha, beta_x, beta_y, beta_z, then det rho."""
    return (*(c.real for c in pauli_decompose(rho)), dets)


def _chain_columns(hm, rho, dys: DysonSample, h, det_closed):
    """det rho, Htilde and the residuals of the chain rho -> eta -> (h, Htilde) that every scenario checks.

    Each is a build, formed on its first call and then kept, as are ``h``
    and ``det_closed``. The residuals are invariant columns: det_deviation
    |det rho - det_closed|, eta_sq_residual |eta^2 - rho|, h_hermiticity of
    h, and htilde_quasi_hermiticity of Htilde = H + i eta^-1 eta_dot for
    the static ``hm``.
    """
    dets = cache(lambda: det(rho).real)
    h_tilde = cache(lambda: physical_hamiltonian(hm, dys))
    return dets, h_tilde, {
        "det_deviation": cache(lambda: np.abs(dets() - det_closed())),
        "eta_sq_residual": cache(lambda: frobenius_norm(mul(dys.eta, dys.eta) - rho)),
        "h_hermiticity": cache(lambda: hermiticity_residual(h())),
        "htilde_quasi_hermiticity": cache(lambda: quasi_hermiticity_residual(h_tilde(), rho)),
    }


def _write_series(out_dir: Path, name: str, header, rows, cfg: ScenarioConfig):
    """Write one table, a time series or a sweep, as <name>.csv or <name>.json (see _write_tables).

    The table is written by this process alone: a sweep table holds one row
    per value, too few to pay for a fork.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    return _write_tables(out_dir, [[(name, header, list(rows.T))]], cfg)[0]


# rows per block; a block's values of every distinct column are formatted in
# one kernel call, CSV or JSON, and its strings are held at once: about 3,000
# for the 23 or 24 columns of a yang-lee-closed run's 7 series. On
# closed-emit, 256 rows took 13 % less time than 128 and 64 rows 18 % more,
# but 256 rows raised the peak RSS by about 0.5 MB more than 128
_BLOCK_ROWS = 128
# at most this many row ranges of a chunk, so processes: each range past the
# first holds one temporary file per table and a pipe open in this process
# until the chunk's rows are appended
_MAX_RANGES = 16


def _format_block(block, as_json: bool):
    """The bytes of a (columns, rows) block of floats, one list per column, from one numpy kernel call.

    CSV takes the "%.17g" bytes of _format.format_g17, JSON the shortest
    round-trip repr of _format.format_repr, NaN and Infinity spelled as
    ``json`` spells them.
    """
    from . import _format  # on the first block: its 4 ms of compiling is no cost to verify

    return (_format.format_repr if as_json else _format.format_g17)(block).tolist()


def _csv_rows(strings, first):
    """A block of CSV rows from the bytes of its columns: each row's joined by "," and ended by "\n"."""
    return b"\n".join(map(b",".join, zip(*strings))) + b"\n"


def _table_format(header, cfg: ScenarioConfig):
    """The head of a table and the template of its rows: (order, rows).

    ``rows(strings, first)`` gives the bytes of a block of rows from the
    bytes of its columns in ``order`` (see _format_block), ``first`` when
    the block is the table's first. A CSV row is its strings joined by ","
    and ended by "\n": floats keep 17 significant digits. JSON rows are
    joined by ",\n", and a block starts with one, except the first, which
    starts with "\n". A JSON file holds the bytes
    ``json.dump(indent=2, sort_keys=True)`` writes for {"columns",
    "metadata", key: one dict per row}, key being "samples" for a time
    series (first column t) and "rows" for a sweep: floats in their
    shortest round-trip repr, a repeated name keeping its last value as
    ``dict(zip(header, row))`` would. Only the head goes through ``json``;
    the rows are filled into a bytes template (``bytes.__mod__``), because
    ``json`` drops to its pure-Python encoder when ``indent`` is set. The
    head leaves the list of rows open: its tail depends on whether the
    table has any.
    """
    if cfg.format != "json":
        return ",".join(header) + "\n", (range(len(header)), _csv_rows)
    last = {field: i for i, field in enumerate(header)}
    order = [last[field] for field in sorted(last)]
    key = "samples" if header[0] == "t" else "rows"
    head = json.dumps({"columns": list(header), "metadata": _metadata(cfg)}, indent=2, sort_keys=True)
    row = ",\n".join(f"      {json.dumps(header[i]).replace('%', '%%')}: %s" for i in order)
    fill = ("    {\n" + row + "\n    }").encode().__mod__

    def rows(strings, first):
        return (b"\n" if first else b",\n") + b",\n".join(map(fill, zip(*strings)))

    # key sorts after "metadata": reopen the head's closing "\n}" for it
    return f'{head[:-2]},\n  "{key}": [', (order, rows)


def _write_tables(out_dir: Path, chunks, cfg: ScenarioConfig, parts: int = 1):
    """Write tables chunk by chunk, as <name>.csv or <name>.json (see _table_format).

    ``chunks`` yields, for each chunk of rows in order, the same tables,
    each (name, header, columns), of one row count within the chunk. The
    first chunk opens the files and writes their heads. The rows of each
    chunk are cut into ``parts`` contiguous ranges (at most one per row and
    _MAX_RANGES in all), one per process (``_parallel._fork_map``). A
    process walks its range in blocks of _BLOCK_ROWS rows, formats each
    distinct column of the block once and writes every table's rows of the
    block. Columns are told apart by their float64 bits over the chunk, not
    by identity, so -0.0 stays apart from 0.0 and NaNs of one bit pattern
    merge: the strings depend only on the bits. This process writes the
    first range straight into the files; each worker writes its range into
    unnamed temporary files in ``out_dir``, opened before the fork so that
    nothing is left behind when a process fails, and this process appends
    them in range order before it takes the next chunk. The tails follow
    the last chunk. A chunk without tables writes nothing and forks
    nothing. The bytes depend neither on ``parts`` nor on how the rows are
    cut into chunks; every line ends in "\n" on every platform. When the
    chunks raise or any range fails, the table files are removed before the
    error is raised. Returns the paths, in table order.
    """
    paths, files, formats = [], [], []
    done = 0  # rows written so far

    def write_rows(targets, columns, layouts, lo, hi):
        for start in range(lo, hi, _BLOCK_ROWS):
            block = np.array([col[start : min(start + _BLOCK_ROWS, hi)] for col in columns])
            strings = _format_block(block, cfg.format == "json")
            for fh, (order, rows) in zip(targets, layouts):
                fh.write(rows([strings[i] for i in order], not done + start))
        for fh in targets:
            fh.flush()  # a worker leaves through os._exit, which flushes nothing

    def write_chunk(tables):
        columns, layouts, seen = [], [], {}  # hash of a column's bytes -> indices in columns

        def index(col):  # the index in columns of the column with col's bits, appended if new
            col = np.asarray(col, dtype=float)
            same = seen.setdefault(hash(col.tobytes()), [])  # the bytes are dropped at once
            k = next((k for k in same if np.array_equal(columns[k].view(np.int64), col.view(np.int64))), None)
            if k is None:
                same.append(k := len(columns))
                columns.append(col)
            return k

        for (_, _, cols), (order, rows) in zip(tables, formats, strict=True):
            layouts.append(([index(cols[i]) for i in order], rows))
        n = len(columns[0])
        ranges = max(1, min(parts, n, _MAX_RANGES))
        bounds = [n * k // ranges for k in range(ranges + 1)]
        with ExitStack() as stack:
            temporary = lambda: stack.enter_context(tempfile.TemporaryFile(dir=out_dir))
            spills = [[temporary() for _ in files] for _ in range(ranges - 1)]
            targets = [files, *spills]
            _fork_map(lambda k: write_rows(targets[k], columns, layouts, bounds[k], bounds[k + 1]), range(ranges))
            for j, fh in enumerate(files):
                for spill in spills:
                    spill[j].seek(0)
                    shutil.copyfileobj(spill[j], fh, 1 << 20)
        return n

    try:
        with ExitStack() as stack:
            for tables in chunks:
                for name, header, _ in () if files else tables:  # the first chunk opens the files
                    head, template = _table_format(header, cfg)
                    paths.append(out_dir / f"{name}.{cfg.format}")
                    files.append(stack.enter_context(open(paths[-1], "wb")))
                    files[-1].write(head.encode())
                    formats.append(template)
                done += write_chunk(tables) if tables else 0
                del tables  # before the next chunk is formed
            for fh in files:  # a JSON tail closes the list of rows the head left open
                fh.write((("\n  ]" if done else "]") + "\n}\n" if cfg.format == "json" else "").encode())
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
# Runs in chunks
# ----------------------------------------------------------------------

# Steps per chunk of a run, so that its memory does not grow with the window.
# A multiple of the 100-step stride of the RK4 local error checks, so every
# chunk checks the steps a one-chunk run checks.
CHUNK_STEPS = 8_000


def _partition(grid: IntegrationGrid):
    """(lo, hi, rows) of each chunk of steps lo .. hi; it yields grid rows lo + 1 .. hi, the first row 0 too."""
    n = grid.n_steps
    for lo in range(0, n, CHUNK_STEPS):
        hi = min(lo + CHUNK_STEPS, n)
        yield lo, hi, slice(lo + 1 if lo else 0, hi + 1)


def _times(grid: IntegrationGrid, lo: int, hi: int) -> np.ndarray:
    """The times of grid rows lo .. hi - 1, each t_start + dt * k as in grid.times."""
    return grid.t_start + grid.dt * np.arange(lo, hi)


def _rows_in(picked: np.ndarray, rows: slice) -> np.ndarray:
    """The grid rows of ``picked`` that lie in ``rows``, counted from its start."""
    return picked[(picked >= rows.start) & (picked < rows.stop)] - rows.start


def _numeric_chunks(grid: IntegrationGrid, h: SU2Hamiltonian, rho0, source):
    """The metric flow, Dyson map and propagator over the grid, in chunks of CHUNK_STEPS steps.

    Yields (rows, ts, rho, dys, u) for each chunk: the slice of grid rows it
    holds, their times, the integrated metric, its DysonSample (eta_dot from
    the flow) and u(t, t_start) of the Hermitian ``source``. A chunk starts
    on the last row of the chunk before it and yields the rows after that
    one. It continues the RK4 solutions of that chunk from their last
    values, never from a closed form: the metric's A through
    integrate_metric_from and u through evolve_state, so the local error
    checks see the A and u of one pass. The first chunk starts both from the
    identity, as integrate_metric and propagator_series do, so a window of
    at most CHUNK_STEPS steps is one pass over the whole grid, with its bits.

    Errors and warnings come as one pass raises and draws them. The metric
    and its Dyson map come before the propagator, so once the propagator's
    local error check fails, only they run on through the chunks left; a
    StepTooLarge or NotPositiveDefinite among them is raised instead of the
    propagator's. The first chunk whose source is not Hermitian draws the
    one warning, which names the first such time of the whole grid, and the
    chunks after it skip the check.
    """
    a_end = u_end = IDENTITY
    failed = None  # the propagator's StepTooLarge, raised once the metric has run to the end
    check = True  # until a chunk's source has drawn the non-Hermitian warning
    for lo, hi, rows in _partition(grid):
        start = grid.t_start + grid.dt * lo
        part = IntegrationGrid(start, start + grid.dt * (hi - lo), grid.dt)
        own = slice(rows.start - lo, None)
        flow, a_end = integrate_metric_from(h, rho0, a_end, part)
        rho, dys = flow.series.samples[own], dyson_from_metric(flow)[own]
        del flow  # only the rows yielded stay alive: each del here lowers the peak RSS
        if failed is not None:
            continue
        with warnings.catch_warnings(record=True) as drawn:  # what the filters let through, shown below
            try:
                u = evolve_state(source, u_end, part, hermitian_check=check).samples[own]
            except StepTooLarge as exc:
                failed = exc  # a warning drawn before it stays, as in one pass
        for w in drawn:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            check = check and w.category is not UserWarning
        if failed is not None:
            continue
        u_end = u[-1].copy()
        yield rows, _times(grid, rows.start, rows.stop), rho, dys, u
        del rho, dys, u  # before the next chunk is formed
    if failed is not None:
        raise failed


def _reduce_checks(checks, more):
    """Fold a chunk's checks into those of the chunks before it, check by check.

    Each check folds its two values by its mode, as its samples fold within
    a chunk (see Check.of): a NaN in either stays.
    """
    return [Check.of(a.name, [a.value, b.value], a.tolerance, a.mode) for a, b in zip(checks, more, strict=True)]


def _run_chunks(cfg: ScenarioConfig, grid: IntegrationGrid, tables=(), write=list, reads=None):
    """The scenario's report, from one chunk of the grid at a time; each chunk's named tables go to ``write``.

    The scenario's pipeline, given (cfg, grid), returns its chunks, each
    (rows, ts, *state): the slice of grid rows it holds (see _partition),
    their times and what the pipeline carries over, and its step, where
    ``step(rows, ts, *state)`` returns the chunk's checks and series, each
    as name -> build in report order. A check's build() gives the samples,
    tolerance and mode that Check.of folds. The checks named in ``reads``,
    all of them when it is None, are built for each chunk and fold into one
    report (_reduce_checks); a check not read is never formed, nor what
    only it needs. ``write`` consumes an iterator over the chunks that
    yields, as each chunk is done, the (name, header, columns) list of its
    tables named in ``tables``, as _write_tables takes it; none is named
    for ``verify``, whose ``list`` keeps one empty list per chunk. No array
    outlives its chunk: each goes before the next chunk is formed.
    """
    chunks, step = _PIPELINES[cfg.scenario](cfg, grid)
    checks = []

    def named():
        for rows, ts, *state in chunks:
            builds, series = step(rows, ts, *state)
            more = [Check.of(name, *build()) for name, build in builds.items() if reads is None or name in reads]
            checks[:] = _reduce_checks(checks, more) if checks else more
            yield [(name, *series[name]()) for name in tables]
            del state, ts, builds, more, series  # before the next chunk is formed

    write(named())
    return VerificationReport(cfg.scenario, tuple(checks))


# ----------------------------------------------------------------------
# The closed Yang-Lee pipeline
# ----------------------------------------------------------------------

def _yang_lee_closed(cfg: ScenarioConfig, grid: IntegrationGrid):
    """The closed scenario's chunks and step; its forms are elementwise in t, so any chunk size keeps every bit.

    Every caller builds every closed check, so the step forms the closed
    forms and the samples that several checks or tables share up front; its
    checks are builds over them, as _run_chunks takes them.
    """
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    h1 = h1_su2(p)
    h1m = h1.matrix()
    e_p, e_m = eigenvalues_h1(p)
    sub = _subsample(grid.n_steps + 1)
    # the samples of the checks that read no grid time, formed once
    anchor_error = np.linalg.norm(u_closed(p.t0, p) - IDENTITY)
    basis = basis_states(p)
    basis_error = [np.linalg.norm(basis.phi1 - IDENTITY[0]), np.linalg.norm(basis.phi2 - IDENTITY[1])]
    endpoint = [
        abs(energy_expectation(p.t0, +1, p) - e_p),
        abs(energy_expectation(p.t0, -1, p) - e_m),
        abs(energy_expectation(-p.t0, +1, p) - 0.5 * (p.phi**3 - p.omega)),
        abs(energy_expectation(-p.t0, -1, p) - 0.5 * (-p.phi**3 - p.omega)),
    ]

    def step(rows, ts):
        rho = rho_closed(ts, p)
        dys = eta_closed(ts, p)
        eta = dys.eta
        h = rabi_h(ts, p)
        u = u_closed(ts, p)
        dets, h_tilde, chain = _chain_columns(h1m, rho, dys, lambda: h, lambda: p.phi**4 / p.gamma**2)
        psi_p, psi_m = psi_pm(ts, +1, p), psi_pm(ts, -1, p)
        phi_p, phi_m = _apply(eta, psi_p), _apply(eta, psi_m)
        e_plus, e_minus = energy_expectation(ts, +1, p), energy_expectation(ts, -1, p)

        ip = lambda a, b: _braket(a, rho, b)
        ip_unit = [np.abs(ip(psi_p, psi_p) - 1.0), np.abs(ip(psi_m, psi_m) - 1.0)]
        ip_cross = [np.abs(ip(psi_m, psi_p) - 1j * p.gamma), np.abs(ip(psi_p, psi_m) + 1j * p.gamma)]
        psi_resid, phi_resid, energy_h, energy_metric = [], [], [], []  # one sign's temporaries at a time
        for psi, phi, energy, e_t in ((psi_p, phi_p, e_p, e_plus), (psi_m, phi_m, e_m, e_minus)):
            psi_resid.append(np.linalg.norm(_apply(h1m, psi) - energy * psi, axis=1))
            # phi = eta Psi solves the Hermitian equation; the derivative is analytic
            d_phi = _apply(dys.eta_dot, psi) - 1j * energy * _apply(eta, psi)
            phi_resid.append(np.linalg.norm(_apply(h, phi) - 1j * d_phi, axis=1))
            energy_h.append(np.abs(_braket(phi, h, phi).real - e_t))
            energy_metric.append(np.abs(_braket(psi, rho, _apply(h_tilde(), psi)).real - e_t))
        # propagator checks: unitarity, TDSE with du/dt = i diag(theta', omega - theta') u
        at = _rows_in(sub, rows)
        rate = theta_dot(ts[at], p)
        du = 1j * np.stack([rate, p.omega - rate], axis=-1)[..., None] * u[at]
        u_unitarity = _unitarity(u)

        checks = {
            "metric_hermitian": lambda: (hermiticity_residual(rho), 1e-12),
            "metric_flow_residual": lambda: (frobenius_norm(metric_rhs(h1, rho) - rho_closed_dot(ts, p)), 1e-10),
            "det_rho_constant": lambda: (chain["det_deviation"](), 1e-10),
            "eta_squared_matches_rho": lambda: (chain["eta_sq_residual"](), 1e-10),
            "eta_hermitian": lambda: (hermiticity_residual(eta), 1e-12),
            "h_hermitian": lambda: (chain["h_hermiticity"](), 1e-12),
            "dyson_relation": lambda: (frobenius_norm(hermitian_counterpart(h1m, dys) - h), 1e-9),
            "htilde_quasi_hermitian": lambda: (chain["htilde_quasi_hermiticity"](), 1e-9),
            "h1_not_quasi_hermitian": lambda: (quasi_hermiticity_residual(h1m, rho), 1e-2, "min_gt"),
            "inner_product_unit": lambda: (ip_unit, 1e-9),
            "inner_product_cross": lambda: (ip_cross, 1e-9),
            "psi_tdse_residual": lambda: (psi_resid, 1e-12),
            "phi_tdse_residual": lambda: (phi_resid, 1e-8),
            "u_identity_at_anchor": lambda: (anchor_error, 1e-12),
            "u_unitary": lambda: (u_unitarity, 1e-12),
            "u_tdse_residual": lambda: (frobenius_norm(mul(h[at], u[at]) - 1j * du), 1e-8),
            "basis_reconstruction": lambda: (basis_error, 1e-10),
            "energy_matches_h_expectation": lambda: (energy_h, 1e-9),
            "energy_matches_metric_expectation": lambda: (energy_metric, 1e-9),
            "energy_endpoint_values": lambda: (endpoint, 1e-12),
        }
        invariants = lambda: {**{name: build() for name, build in chain.items()}, "u_unitarity": u_unitarity}
        series = _series(
            ts, lambda: _metric_columns(rho, dets()), eta, lambda: h, invariants,
            u, lambda: {"E_plus": e_plus, "E_minus": e_minus},
        )
        return checks, series

    return ((rows, _times(grid, rows.start, rows.stop)) for _, _, rows in _partition(grid)), step


# ----------------------------------------------------------------------
# The numeric pipeline
# ----------------------------------------------------------------------

def _numeric(grid: IntegrationGrid, h: SU2Hamiltonian, zeta: ZetaConstants, source, oracle=None):
    """The numeric pipeline of a static H whose closed-form metric is zeta_metric(t, h, zeta).

    The metric starts at the closed form's rho(t_start) and runs through
    _numeric_chunks with the Hermitian ``source`` of the propagator, which
    every numeric scenario integrates, whatever tables it writes, or checks
    it reads. Each chunk checks the metric against the closed form, its
    flow against the closed form's analytic derivative, det rho,
    positivity, eta^2 = rho and the Hermiticity of h and quasi-Hermiticity
    of Htilde, and the unitarity of u. What several checks or tables share,
    h, Htilde, the closed form and the chain residuals, is formed once per
    chunk, on first use, so a check not built costs nothing. ``oracle(rows,
    ts, rho, dys, u, h_num, unitarity)``, given, with builds of h and of the
    unitarity, returns the chunk's further (checks, invariant columns,
    energies) builds, the energies replacing those of the evolved basis
    states. So the two numeric scenarios differ only in their source and
    their oracle. Returns the chunks and the step over one chunk, as
    _run_chunks takes them.
    """
    hm = h.matrix()
    sub = _subsample(grid.n_steps + 1, want=50)

    def chunk(rows, ts, rho_num, dys, u):
        ref = cache(lambda: zeta_metric(ts, h, zeta))
        rho_ref = cache(lambda: ref().matrix())
        h_num = cache(lambda: hermitian_counterpart(hm, dys))
        dets, _h_tilde, chain = _chain_columns(hm, rho_num, dys, h_num, lambda: positivity_margin(ref()))
        dev_metric = cache(lambda: frobenius_norm(rho_num - rho_ref()))
        unitarity = cache(lambda: _unitarity(u))

        def flow_resid():
            # the flow of the closed form against its analytic derivative
            at = _rows_in(sub, rows)
            return frobenius_norm(metric_rhs(h, rho_ref()[at]) - zeta_metric_dot(ts[at], h, zeta).matrix())

        checks = {
            "metric_flow_residual_fd": lambda: (flow_resid(), 1e-9),
            "metric_numeric_vs_closed": lambda: (dev_metric(), 1e-8),
            "metric_hermitian": lambda: (hermiticity_residual(rho_num), 1e-10),
            "det_rho_drift": lambda: (chain["det_deviation"](), 1e-8),
            "positivity_maintained": lambda: (dets(), 0.0, "min_gt"),
            "eta_squared_matches_rho": lambda: (chain["eta_sq_residual"](), 1e-10),
            "h_hermitian": lambda: (chain["h_hermiticity"](), 1e-6),
            "htilde_quasi_hermitian": lambda: (chain["htilde_quasi_hermiticity"](), 1e-6),
        }
        if not np.any(h.lambda_vec):
            checks["h_matches_static_h"] = lambda: (frobenius_norm(h_num() - hm), 1e-6)
        checks["u_unitary"] = lambda: (unitarity(), 1e-9)

        # the columns of u are the evolved basis states
        energies = lambda: {f"E_{k + 1}": _braket(u[:, :, k], h_num(), u[:, :, k]).real for k in (0, 1)}
        columns = dict  # no oracle, no further invariant columns
        if oracle is not None:
            more, columns, energies = oracle(rows, ts, rho_num, dys, u, h_num, unitarity)
            checks.update(more)
        invariants = lambda: {
            "metric_vs_closed": dev_metric(), **{name: build() for name, build in chain.items()}, **columns()
        }
        return checks, _series(ts, lambda: _metric_columns(rho_num, dets()), dys.eta, h_num, invariants, u, energies)

    rho0 = zeta_metric(grid.t_start, h, zeta).matrix()
    return _numeric_chunks(grid, h, rho0, source), chunk


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


def _su2_generic(cfg: ScenarioConfig, grid: IntegrationGrid):
    h, zeta, _period = _su2_config(cfg)
    return _numeric(grid, h, zeta, _su2_h_source(h, zeta))


def _yang_lee_numeric(cfg: ScenarioConfig, grid: IntegrationGrid):
    """_numeric on H1 and its closed-form metric, rabi_h driving the propagator, plus the Yang-Lee oracles.

    The oracles check eta, h and u against their closed forms, and that the
    non-Hermitian-picture propagator eta^-1 u eta(t_start) keeps rho norms
    but not flat ones; the energies are <phi_pm| h |phi_pm> of
    phi_pm = eta psi_pm.
    """
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    u_start = dagger(u_closed(grid.t_start, p))
    psi_start = [psi_pm(grid.t_start, sgn, p) for sgn in (+1, -1)]
    sub = _subsample(grid.n_steps + 1)
    h1, zeta = h1_su2(p), rho_closed_constants(p)
    eta_start = hermitian_sqrt(zeta_metric(grid.t_start, h1, zeta).matrix())  # the first row of the numeric eta

    def oracle(rows, ts, rho_num, dys, u_num, h_num, unitarity):
        dev_eta = cache(lambda: frobenius_norm(dys.eta - eta_closed(ts, p).eta))
        dev_h = cache(lambda: frobenius_norm(h_num() - rabi_h(ts, p)))
        dev_u = cache(lambda: frobenius_norm(u_num - mul(u_closed(ts, p), u_start)))

        @cache
        def u_big():
            # the non-Hermitian-picture propagator keeps rho norms but not flat ones
            at = _rows_in(sub, rows)
            return at, mul(mul(dys.eta_inverse[at], u_num[at]), eta_start)

        def rho_inner():
            at, big = u_big()
            return [np.abs(_braket(m, rho_num[at], m) - 1.0) for m in (_apply(big, psi) for psi in psi_start)]

        checks = {
            "eta_numeric_vs_closed": lambda: (dev_eta(), 1e-8),
            "h_numeric_vs_closed": lambda: (dev_h(), 1e-6),
            "u_numeric_vs_closed": lambda: (dev_u(), 1e-7),
            "rho_inner_preserved": lambda: (rho_inner(), 1e-7),
            "nonunitary_flat_metric": lambda: (_unitarity(u_big()[1]), 1e-2, "max_gt"),
        }

        def energies():
            out = {}
            for name, sgn in (("E_plus", +1), ("E_minus", -1)):
                phi = _apply(dys.eta, psi_pm(ts, sgn, p))
                out[name] = _braket(phi, h_num(), phi).real
            return out

        invariants = lambda: {
            "eta_vs_closed": dev_eta(),
            "h_vs_closed": dev_h(),
            "u_vs_closed": dev_u(),
            "u_unitarity": unitarity(),
        }
        return checks, invariants, energies

    return _numeric(grid, h1, zeta, lambda t: rabi_h(t, p), oracle)


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

    The scenario runs in chunks of CHUNK_STEPS steps (see _run_chunks), and
    ``run`` hands each chunk's rows of the requested outputs to the one
    writer as the chunk is done (see _write_tables), which appends them to
    the open files, cut over the usable CPUs. No verb keeps an array longer
    than a chunk, so the peak memory of neither grows with the window.
    report.json is written last, by this process.
    """
    if not write_files:
        return _run_chunks(cfg, _resolve_window(cfg)), []
    out_dir = _out_dir(cfg)
    names = tuple(dict.fromkeys(cfg.outputs))  # a name listed twice is written once
    write = lambda chunks: _write_tables(out_dir, chunks, cfg, _usable_cpus())
    report = _run_chunks(cfg, _resolve_window(cfg), names, write)
    written = [out_dir / f"{name}.{cfg.format}" for name in names] + [out_dir / "report.json"]
    with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:  # "\n" on every platform, as the tables
        json.dump({"metadata": _metadata(cfg), "report": report.to_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, written


def _sweep_row(cfg: ScenarioConfig):
    """One sweep row, read from the numeric scenario's report over the sweep window.

    Yang-Lee configs run yang-lee-numeric, su2-generic configs themselves;
    either integrates its metric, Dyson map and propagator, as every numeric
    run does, so it raises and warns as ``verify`` does, and writes nothing.
    Only the checks the row reads are built (see _run_chunks); their values
    are those of the full report. The window honours t_start and t_end;
    left open, it spans one natural period, half the default window of
    ``run``. Returns the minimum positivity margin, the maximum
    quasi-Hermiticity residual, and the larger of the metric and propagator
    closed-vs-numeric deviations (the propagator one where the scenario
    reports it), folded as a max_le check folds, so that a NaN in either
    stays.
    """
    scenario = "su2-generic" if cfg.scenario == "su2-generic" else "yang-lee-numeric"
    cfg = replace(cfg, scenario=scenario)
    deviations = ("metric_numeric_vs_closed", "u_numeric_vs_closed")
    reads = {"positivity_maintained", "htilde_quasi_hermitian", *deviations}
    report = _run_chunks(cfg, _resolve_window(cfg, periods=1), reads=reads)
    value = {c.name: c.value for c in report.checks}
    return (
        value["positivity_maintained"],
        value["htilde_quasi_hermitian"],
        float(_MODES["max_le"].fold.reduce([value[name] for name in deviations if name in value])),
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
