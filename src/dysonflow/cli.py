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
every check passes, 1 on a failed check, 2 on a config error, which every
verb reports before it makes out_path or forks.

Each scenario is declared once, in _SCENARIOS: a model function, which
refuses what the scenario cannot run and gives its model and natural
window, and a pipeline of that model. Every kernel is called on a stack of
samples, never once per sample. Every pipeline is a step that one loop,
_run_chunks, drives over the grid in chunks of CHUNK_STEPS = 8,000 steps:
the step forms the chunk's closed forms, Dyson maps and checks, the checks
fold into one report, and ``run`` writes the chunk's rows of its tables
before the next chunk is formed, so the peak memory of neither verb grows
with the window. The closed
scenario's forms are elementwise in t, so its runs keep every bit of one
pass for any chunk size. The two numeric scenarios are one pipeline,
_numeric: yang-lee-numeric is su2-generic on H1 with the canonical metric
constants, plus its Yang-Lee oracles. Each of its chunks continues the
RK4 solutions of the one before; a window of at most one chunk is one
pass, with the same bits.

``run`` hands each chunk's rows of the requested series to the one
writer, _format._write_tables, which decides every byte of a table file;
``sweep`` computes its values side by side over the usable CPUs through
``_parallel._fork_map``, with the same rows as one process.
"""

import argparse
import json
import math
import operator
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import _fork_map
from .dyson import (
    DysonSample,
    dyson_forms,
    dyson_from_metric,
    dyson_relation_forms,
    invert_dyson_map,
    quasi_hermiticity_form,
)
from .errors import ConfigInvalid, DysonflowError, StepTooLarge, UnsupportedHamiltonian
from .metric import (
    SU2Hamiltonian,
    ZetaConstants,
    _require_flow_solvable,
    integrate_metric_from,
    metric_rhs_form,
    positivity_margin,
    zeta_metric,
    zeta_metric_dot,
)
from .propagate import evolve_state
from .series import IntegrationGrid
from .su2 import (
    IDENTITY,
    dagger,
    frobenius_norm,
    hermitian_sqrt,
    hermiticity_residual,
    mul,
    pauli_compose,
    pauli_det,
    pauli_form,
    pauli_norm,
    pauli_product,
    require_pd_form,
)
from .yang_lee import (
    YangLeeParams,
    basis_states,
    eigenvalues_h1,
    energy_expectation,
    eta_closed,
    eta_form,
    h1_su2,
    psi_pm,
    rabi_form,
    rabi_h,
    rho_closed,
    rho_closed_dot,
    rho_closed_constants,
    theta_dot,
    u_closed,
)

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


def _as_list(raw, name, n):
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ConfigInvalid(f"{name} must be a {n}-element list")
    return tuple(_as_float(x, name) for x in raw)


def _optional(parse):
    return lambda raw, name: None if raw is None else parse(raw, name)


# every numeric config field and its parser, which refuses (ConfigInvalid)
# what is not a finite number, or a list of them of the field's length; every
# scenario parses every field, even one it does not read
_FIELDS = {
    **dict.fromkeys(("gamma", "omega", "dt"), _as_float),
    **dict.fromkeys(("t_start", "t_end"), _optional(_as_float)),
    **dict.fromkeys(("kappa0", "lambda0"), _as_float),
    **dict.fromkeys(("kappa_vec", "lambda_vec"), partial(_as_list, n=3)),
    "zeta_constants": _optional(partial(_as_list, n=4)),
}


def load_config(path, overrides=None) -> ScenarioConfig:
    """Read and validate a JSON config file, then apply flag overrides; the flag of a field not read is refused."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(raw) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    cfg = ScenarioConfig(**{**{"scenario": ""}, **raw})
    unread = _SCENARIOS[cfg.scenario].unread if cfg.scenario in SCENARIOS else ()  # else validate_config refuses
    for key, value in (overrides or {}).items():
        if value is not None:
            if key in unread:
                raise ConfigInvalid(f"{cfg.scenario} takes no --{key}; it does not read {key}")
            cfg = replace(cfg, **{key: value})
    return validate_config(cfg)


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """cfg with its fields parsed (_FIELDS), refused (ConfigInvalid) where they, or its scenario's model, are."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigInvalid(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if not isinstance(cfg.outputs, (list, tuple)):
        raise ConfigInvalid(f"outputs must be a list of names from {OUTPUTS}, got {cfg.outputs!r}")
    parsed = {name: parse(getattr(cfg, name), name) for name, parse in _FIELDS.items()}
    cfg = replace(cfg, outputs=tuple(cfg.outputs), **parsed)
    if cfg.dt <= 0.0:
        raise ConfigInvalid(f"dt must be positive, got {cfg.dt}")
    for output in cfg.outputs:
        if output not in OUTPUTS:
            raise ConfigInvalid(f"unknown output {output!r}; choose from {OUTPUTS}")
    if not isinstance(cfg.out_path, str):
        raise ConfigInvalid(f"out_path must be a string, got {cfg.out_path!r}")
    if cfg.format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}, got {cfg.format!r}")
    _SCENARIOS[cfg.scenario].model(cfg)
    return cfg


def _yang_lee_model(cfg: ScenarioConfig):
    """The Yang-Lee scenarios' model, (t0, period, YangLeeParams of gamma and omega); refuses zeta_constants."""
    try:
        p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    except ValueError as exc:
        raise ConfigInvalid(f"Yang-Lee scenarios: {exc}") from exc
    # the Yang-Lee oracle chain (eta, h, u) exists only for the canonical
    # metric family, which gamma and omega fix
    if cfg.zeta_constants is not None:
        raise ConfigInvalid("yang-lee scenarios take no zeta_constants; use the su2-generic scenario for them")
    return p.t0, p.period, p


def _su2_model(cfg: ScenarioConfig):
    """su2-generic's model, (0, period, (h, zeta)); refused where the closed-form metric or its positivity fails.

    The closed-form metric its checks read exists by the rule of
    metric._require_flow_solvable; zeta_constants default to (0, 0, -1, 0).
    """
    h = SU2Hamiltonian(kappa0=cfg.kappa0, lambda0=cfg.lambda0, kappa_vec=cfg.kappa_vec, lambda_vec=cfg.lambda_vec)
    zeta = ZetaConstants(*(cfg.zeta_constants or (0.0, 0.0, -1.0, 0.0)))
    try:
        k2, l2 = _require_flow_solvable(h)
    except UnsupportedHamiltonian as exc:
        raise ConfigInvalid(f"su2-generic: {exc}") from exc
    # det rho is conserved along the zeta family, so t = 0 decides every t
    rho0 = zeta_metric(0.0, h, zeta)
    margin = positivity_margin(rho0)
    if not (rho0.alpha > 0.0 and 0.0 < margin < math.inf):  # a NaN det fails too
        raise ConfigInvalid(
            "su2-generic: zeta_constants give a metric that is not positive definite "
            f"(alpha = {rho0.alpha:.6g}, det rho = {margin:.6g})"
        )
    return 0.0, 2.0 * math.pi / math.sqrt(k2 - l2), (h, zeta)


# the most steps a window may take: 12,500 chunks of CHUNK_STEPS, hours of
# work for any scenario; a config asking for more cannot finish
MAX_STEPS = 10**8


def _resolve_window(cfg: ScenarioConfig, periods: int = 2):
    """Snap the requested window onto a whole number of dt steps.

    An open start is the scenario's natural one and an open end lies
    ``periods`` natural periods after the start, both as its model function
    gives them (see _SCENARIOS). A window of at most half a step is refused,
    not widened to one step, and so is a dt at or below the spacing of
    floats at the window's ends, where t_start + k dt stop being distinct,
    a window of more than MAX_STEPS steps, and one whose end t_start + n dt,
    rounded, misses IntegrationGrid's bound on a whole number of steps.
    """
    default_start, period, _model = _SCENARIOS[cfg.scenario].model(cfg)
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
    try:
        return IntegrationGrid(t_start=t_start, t_end=t_start + n * cfg.dt, dt=cfg.dt)
    except ValueError as exc:  # t_start + n dt, rounded to the floats there, lies off n steps
        raise ConfigInvalid(f"near t = {t_start:.6g}, {exc} (bound 1e-9 max(dt, span))") from exc


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
    columns, ``eta`` and ``h`` the stacks of eta and h, and ``invariants``
    and ``energies`` each a name -> column map, so what only those tables
    show is computed only when they are written. Tables that show the same values hold the same
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
        "dyson": matrix("eta", eta),
        "hermitian_h": matrix("h", h),
        "states": lambda: (["t", *_state_header("phi1"), *_state_header("phi2")], [ts, *phi]),
        "propagator": lambda: (["t", *_matrix_header("u")], [ts, *u_columns]),
        "energies": table(energies),
        "invariants": table(invariants),
    }


def _chain_columns(hm, rho, dys: DysonSample, det_closed):
    """rho's real Pauli form, det rho, the Dyson relation and the residuals of the chain rho -> eta -> (h, Htilde).

    Every scenario's chunk forms its chain here, in real Pauli forms
    (su2.pauli_form), from the metric stack ``rho`` and the sample's
    ``forms``, each a build, formed on its first call and then kept, as is
    ``det_closed``. The relation's build gives the pairs of forms (re, im)
    of the raw counterpart h and of Htilde of the static ``hm``, in that
    order (dyson_relation_forms). The residuals are invariant columns:
    det_deviation |det rho - det_closed|, eta_sq_residual |eta^2 - rho|,
    h_hermiticity |h - h^dag| = 2 |im|, the raw h's anti-Hermitian rest,
    and htilde_quasi_hermiticity of Htilde = H + i eta^-1 eta_dot.
    """
    eta, eta_dot = dys.forms
    form = cache(lambda: pauli_form(rho))
    dets = cache(lambda: pauli_det(form()))
    relation = cache(lambda: dyson_relation_forms(hm, eta, eta_dot))
    return form, dets, relation, {
        "det_deviation": cache(lambda: np.abs(dets() - det_closed())),
        "eta_sq_residual": cache(lambda: pauli_norm(pauli_product(eta, eta)[0] - form())),
        "h_hermiticity": cache(lambda: 2.0 * pauli_norm(relation()[0][1])),
        "htilde_quasi_hermiticity": cache(lambda: quasi_hermiticity_form(relation()[1], form())),
    }


def _write_series(out_dir: Path, name: str, header, rows, cfg: ScenarioConfig):
    """Write one table, a time series or a sweep, as _format._write_tables writes it; returns its path."""
    from . import _format  # on a write path alone: verify compiles none of it

    rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
    return _format._write_tables(out_dir, [[(name, header, list(rows.T))]], cfg.format, _metadata(cfg))[0]


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

    Every CLI source is exactly Hermitian, so none draws evolve_state's
    warning. Errors come as one pass raises them. The metric and its Dyson
    map come before the propagator, so once the propagator's local error
    check fails, only they run on through the chunks left; a StepTooLarge or
    NotPositiveDefinite among them is raised instead of the propagator's.
    """
    a_end = u_end = IDENTITY
    failed = None  # the propagator's StepTooLarge, raised once the metric has run to the end
    for lo, hi, rows in _partition(grid):
        part = grid.cut(lo, hi)
        own = slice(rows.start - lo, None)
        flow, a_end = integrate_metric_from(h, rho0, a_end, part)
        rho, dys = flow.series.samples[own], dyson_from_metric(flow)[own]
        del flow  # only the rows yielded stay alive: each del here lowers the peak RSS
        if failed is not None:
            continue
        try:
            u = evolve_state(source, u_end, part).samples[own]
        except StepTooLarge as exc:
            failed = exc
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

    The scenario's pipeline (see _SCENARIOS), given its model and the grid,
    returns its chunks, each (rows, ts, *state): the slice of grid rows it
    holds (see _partition), their times and what the pipeline carries over,
    and its step, where ``step(rows, ts, *state)`` returns the chunk's
    checks and series, each as name -> build in report order. A check's
    build() gives the samples, tolerance and mode that Check.of folds. The checks named in ``reads``,
    all of them when it is None, are built for each chunk and fold into one
    report (_reduce_checks); a check not read is never formed, nor what
    only it needs. ``write`` consumes an iterator over the chunks that
    yields, as each chunk is done, the (name, header, columns) list of its
    tables named in ``tables``, as _format._write_tables takes it; none is named
    for ``verify``, whose ``list`` keeps one empty list per chunk. No array
    outlives its chunk: each goes before the next chunk is formed.
    """
    scenario = _SCENARIOS[cfg.scenario]
    chunks, step = scenario.pipeline(scenario.model(cfg)[2], grid)
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

def _yang_lee_closed(p: YangLeeParams, grid: IntegrationGrid):
    """The closed scenario's chunks and step; its forms are elementwise in t, so any chunk size keeps every bit.

    Every caller builds every closed check, so the step forms the closed
    forms and the samples that several checks or tables share up front; its
    checks are builds over them, as _run_chunks takes them. Its chain is
    _numeric's, _chain_columns on eta_closed's forms: h_hermitian reads the
    raw h's anti-Hermitian rest, and dyson_relation its distance from rabi_h.
    The chain's residuals are formed, and its forms dropped, before the
    per-sign residuals, so the peak memory holds one set of them at a time.
    """
    h1 = h1_su2(p)
    h1m = h1.matrix()
    # H1 = re + i im with re and im Hermitian, each as a real Pauli form that broadcasts over a chunk
    h1_forms = [pauli_form(m)[:, None] for m in (h1m, -1j * h1m)]
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
        h = rabi_h(ts, p)
        u = u_closed(ts, p)
        u_unitarity = _unitarity(u)  # while few arrays are alive: its temporaries are the step's largest
        form, dets, relation, chain = _chain_columns(h1m, rho, dys, lambda: p.phi**4 / p.gamma**2)
        columns = {name: build() for name, build in chain.items()}
        (h_re, h_im), (t_re, t_im) = relation()
        dyson_resid = np.hypot(pauli_norm(h_re - rabi_form(ts, p)), pauli_norm(h_im))
        h_tilde = pauli_compose(*t_re) + 1j * pauli_compose(*t_im)
        flow_resid = pauli_norm(metric_rhs_form(h1, form()) - pauli_form(rho_closed_dot(ts, p)))
        h1_resid = quasi_hermiticity_form(h1_forms, form())
        eta, eta_dot = dys.eta, dys.eta_dot
        del dys, relation, chain, h_re, h_im, t_re, t_im  # the chain's forms, which no check reads any more
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
            d_phi = _apply(eta_dot, psi) - 1j * energy * _apply(eta, psi)
            phi_resid.append(np.linalg.norm(_apply(h, phi) - 1j * d_phi, axis=1))
            energy_h.append(np.abs(_braket(phi, h, phi).real - e_t))
            energy_metric.append(np.abs(_braket(psi, rho, _apply(h_tilde, psi)).real - e_t))
        # propagator checks: unitarity, TDSE with du/dt = i diag(theta', omega - theta') u
        at = _rows_in(sub, rows)
        rate = theta_dot(ts[at], p)
        du = 1j * np.stack([rate, p.omega - rate], axis=-1)[..., None] * u[at]

        checks = {
            "metric_hermitian": lambda: (hermiticity_residual(rho), 1e-12),
            "metric_flow_residual": lambda: (flow_resid, 1e-10),
            "det_rho_constant": lambda: (columns["det_deviation"], 1e-10),
            "eta_squared_matches_rho": lambda: (columns["eta_sq_residual"], 1e-10),
            "eta_hermitian": lambda: (hermiticity_residual(eta), 1e-12),
            "h_hermitian": lambda: (columns["h_hermiticity"], 1e-12),
            "dyson_relation": lambda: (dyson_resid, 1e-9),
            "htilde_quasi_hermitian": lambda: (columns["htilde_quasi_hermiticity"], 1e-9),
            "h1_not_quasi_hermitian": lambda: (h1_resid, 1e-2, "min_gt"),
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
        series = _series(
            ts, lambda: (*form(), dets()), lambda: eta, lambda: h, lambda: {**columns, "u_unitarity": u_unitarity},
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
    it reads. Each chunk checks the metric against the closed form, its flow
    against the closed form's analytic derivative, det rho, positivity,
    eta^2 = rho and the Hermiticity of h and quasi-Hermiticity of Htilde,
    and the unitarity of u; h_hermitian reads the raw h, every table and
    other check its Hermitian part h_num. What several checks or tables
    share, h, Htilde, the closed form and the chain residuals, is formed
    once per chunk, on first use, so a check not built costs nothing.
    ``oracle(rows, ts, rho, dys, u, relation, h_num, unitarity)``, given,
    with builds of the Dyson relation's forms (see _chain_columns), of h_num
    and of the unitarity, returns the chunk's further (checks, invariant
    columns, energies) builds, the energies replacing those of the evolved
    basis states. So the two numeric scenarios differ only in their source
    and their oracle. Returns the chunks and the step over one chunk, as
    _run_chunks takes them.
    """
    hm = h.matrix()
    sub = _subsample(grid.n_steps + 1, want=50)

    def chunk(rows, ts, rho_num, dys, u):
        ref = cache(lambda: zeta_metric(ts, h, zeta))
        ref_form = cache(lambda: ref().form())
        form, dets, relation, chain = _chain_columns(hm, rho_num, dys, lambda: positivity_margin(ref()))
        h_num = cache(lambda: pauli_compose(*relation()[0][0]))
        dev_metric = cache(lambda: pauli_norm(form() - ref_form()))
        unitarity = cache(lambda: _unitarity(u))

        def flow_resid():
            # the flow of the closed form against its analytic derivative
            at = _rows_in(sub, rows)
            return pauli_norm(metric_rhs_form(h, ref_form()[:, at]) - zeta_metric_dot(ts[at], h, zeta).form())

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
            more, columns, energies = oracle(rows, ts, rho_num, dys, u, relation, h_num, unitarity)
            checks.update(more)
        invariants = lambda: {
            "metric_vs_closed": dev_metric(), **{name: build() for name, build in chain.items()}, **columns()
        }
        return checks, _series(ts, lambda: (*form(), dets()), lambda: dys.eta, h_num, invariants, u, energies)

    rho0 = zeta_metric(grid.t_start, h, zeta).matrix()
    return _numeric_chunks(grid, h, rho0, source), chunk


def _su2_h_source(h: SU2Hamiltonian, zeta: ZetaConstants):
    """Exact Hermitian Hamiltonian source of the closed-form metric, batched in t.

    Given a 1-D array of times, the source evaluates the zeta_metric
    coefficients at all of them and returns the (m, 2, 2) stack composed
    from the real form of the Hermitian counterpart h (dyson_relation_forms),
    exactly Hermitian, so the propagator integrates no anti-Hermitian
    rounding rest. The metric's real Pauli form is never composed:
    require_pd_form checks it, and dyson_forms gives eta = sqrt(rho) and
    eta_dot by dyson_from_metric's rule for a MetricFlow, the closed-form
    root and its analytic derivative along the flow -i (H^dag rho - rho H).
    """
    hm = h.matrix()

    def source(t):
        rho = require_pd_form(zeta_metric(t, h, zeta).form())
        return pauli_compose(*dyson_relation_forms(hm, *dyson_forms(h, *rho))[0][0])

    return source


def _yang_lee_numeric(p: YangLeeParams, grid: IntegrationGrid):
    """_numeric on H1 and its closed-form metric, rabi_h driving the propagator, plus the Yang-Lee oracles.

    The oracles check eta, h and u against their closed forms, and that the
    non-Hermitian-picture propagator eta^-1 u eta(t_start) keeps rho norms
    but not flat ones; the energies are <phi_pm| h |phi_pm> of
    phi_pm = eta psi_pm.
    """
    u_start = dagger(u_closed(grid.t_start, p))
    psi_start = [psi_pm(grid.t_start, sgn, p) for sgn in (+1, -1)]
    sub = _subsample(grid.n_steps + 1)
    h1, zeta = h1_su2(p), rho_closed_constants(p)
    eta_start = hermitian_sqrt(zeta_metric(grid.t_start, h1, zeta).matrix())  # the first row of the numeric eta

    def oracle(rows, ts, rho_num, dys, u_num, relation, h_num, unitarity):
        # eta and h against their closed forms in real Pauli forms, neither composed
        dev_eta = cache(lambda: pauli_norm(dys.forms[0] - eta_form(ts, p)))
        dev_h = cache(lambda: pauli_norm(relation()[0][0] - rabi_form(ts, p)))
        dev_u = cache(lambda: frobenius_norm(u_num - mul(u_closed(ts, p), u_start)))

        @cache
        def u_big():
            # the non-Hermitian-picture propagator keeps rho norms but not flat ones
            at = _rows_in(sub, rows)
            return at, mul(mul(invert_dyson_map(dys[at].eta), u_num[at]), eta_start)

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
# Scenarios and verbs
# ----------------------------------------------------------------------

# Each scenario, declared once. Its model function, cfg -> (natural start,
# natural period, model), refuses (ConfigInvalid) the values of the fields
# the scenario reads where it cannot run them; its pipeline, (model, grid) ->
# (chunks, step), is what _run_chunks drives; ``unread`` names the fields of
# SWEEP_PARAMS it does not read, whose flags and sweeps it refuses.
_Scenario = namedtuple("_Scenario", "model pipeline unread")
_SCENARIOS = {
    "yang-lee-closed": _Scenario(_yang_lee_model, _yang_lee_closed, ()),
    "yang-lee-numeric": _Scenario(_yang_lee_model, _yang_lee_numeric, ()),
    "su2-generic": _Scenario(
        _su2_model, lambda model, grid: _numeric(grid, *model, _su2_h_source(*model)), ("gamma", "omega")
    ),
}
SCENARIOS = tuple(_SCENARIOS)


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
    writer as the chunk is done (see _format._write_tables), which appends
    them to the open files, cut over the usable CPUs; it lists the paths
    the writer returns. No verb keeps an array longer than a chunk, so the
    peak memory of neither grows with the window. report.json is written
    last, by this process. The window is resolved before out_path is made,
    so a refused window leaves nothing behind.
    """
    grid = _resolve_window(cfg)
    if not write_files:
        return _run_chunks(cfg, grid), []
    from . import _format  # on a write path alone: verify compiles none of it

    out_dir, written = _out_dir(cfg), []
    write = lambda chunks: written.extend(_format._write_tables(out_dir, chunks, cfg.format, _metadata(cfg)))
    report = _run_chunks(cfg, grid, tuple(dict.fromkeys(cfg.outputs)), write)  # a name listed twice is written once
    written.append(out_dir / "report.json")
    with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:  # "\n" on every platform, as the tables
        json.dump({"metadata": _metadata(cfg), "report": report.to_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, written


def _sweep_row(cfg: ScenarioConfig, grid: IntegrationGrid):
    """One sweep row, read from the numeric scenario's report over the sweep window ``grid``.

    Yang-Lee configs run yang-lee-numeric, su2-generic configs themselves;
    either integrates its metric, Dyson map and propagator, as every numeric
    run does, so it raises as ``verify`` does, and writes nothing.
    Only the checks the row reads are built (see _run_chunks); their values
    are those of the full report. Returns the minimum positivity margin,
    the maximum quasi-Hermiticity residual, and the larger of the metric
    and propagator closed-vs-numeric deviations (the propagator one where
    the scenario reports it), folded as a max_le check folds, so that a NaN
    in either stays.
    """
    cfg = replace(cfg, scenario="su2-generic" if cfg.scenario == "su2-generic" else "yang-lee-numeric")
    deviations = ("metric_numeric_vs_closed", "u_numeric_vs_closed")
    reads = {"positivity_maintained", "htilde_quasi_hermitian", *deviations}
    report = _run_chunks(cfg, grid, reads=reads)
    value = {c.name: c.value for c in report.checks}
    return (
        value["positivity_maintained"],
        value["htilde_quasi_hermitian"],
        float(_MODES["max_le"].fold.reduce([value[name] for name in deviations if name in value])),
    )


def sweep(cfg: ScenarioConfig, parameter: str, values, write_files: bool = True):
    """One numeric run per parameter value, over the usable CPUs; rows ordered by ascending value.

    Every value is validated and its window resolved here, before out_path
    is made or a worker forked, so one refused value refuses the sweep and
    writes nothing. The window honours t_start and t_end; left open, it
    spans one natural period, half the default window of ``run``.
    """
    if parameter not in SWEEP_PARAMS:
        raise ConfigInvalid(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    unread = _SCENARIOS[cfg.scenario].unread
    if parameter in unread:
        swept = ", ".join(name for name in SWEEP_PARAMS if name not in unread)
        raise ConfigInvalid(f"{cfg.scenario} sweeps only {swept}; it does not read {parameter}")
    if not values:
        raise ConfigInvalid("sweep needs at least one value")
    runs = []
    for value in sorted(_as_float(v, parameter) for v in values):
        one = validate_config(replace(cfg, **{parameter: value}))
        runs.append((value, one, _resolve_window(one, periods=1)))
    out_dir = _out_dir(cfg) if write_files else None
    rows = _fork_map(lambda run: [run[0], *_sweep_row(*run[1:])], runs)
    header = [parameter, "min_positivity_margin", "max_quasi_hermiticity_residual", "max_closed_vs_numeric_deviation"]
    written = [_write_series(out_dir, f"sweep_{parameter}", header, rows, cfg)] if write_files else []
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
    overrides = {"gamma": args.gamma, "omega": args.omega, "dt": args.dt, "out_path": args.out}
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
