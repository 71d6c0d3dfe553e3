"""Configuration-driven front end: run scenarios, emit series, sweep parameters.

Usage:
    dysonflow run config.json [--gamma G] [--omega W] [--dt DT] [--out DIR]
    dysonflow verify config.json [...]
    dysonflow sweep config.json --param gamma --values 0.1,0.3,0.5 [...]

The config file is a single JSON object; command-line flags override file
values. ``run`` writes the requested series files plus a report.json into
the output directory and prints the verification report; ``verify`` prints
the report only; ``sweep`` writes one aggregate table. Exit status: 0 when
every check passes, 1 on a failed check, 2 on a config error.

Float output uses 17 significant digits, so identical configs produce
byte-identical files.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dyson import (
    dyson_from_metric,
    hermitian_counterpart,
    invert_dyson_map,
    physical_hamiltonian,
    quasi_hermiticity_residual,
)
from .errors import ConfigInvalid, DysonflowError
from .metric import (
    SU2Hamiltonian,
    ZetaConstants,
    integrate_metric,
    metric_rhs,
    positivity_margin,
    zeta_coefficients,
    zeta_metric,
)
from .propagate import propagator_series
from .series import IntegrationGrid
from .su2 import IDENTITY, PAULIS, hermitian_sqrt, hermitian_sqrt_derivative
from .yang_lee import (
    YangLeeParams,
    basis_states,
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
        if max(
            abs(zeta[0] - canonical.c1),
            abs(zeta[1] - canonical.c2),
            abs(zeta[2] - canonical.c3),
            abs(zeta[3] - canonical.c4),
        ) > 1e-12:
            raise ConfigInvalid(
                "yang-lee scenarios are pinned to the canonical metric constants "
                f"(0, {canonical.c2:.12g}, {canonical.c3:.12g}, 0); "
                "use the su2-generic scenario for other zeta_constants"
            )
    outputs = tuple(cfg.outputs or ())
    for output in outputs:
        if output not in OUTPUTS:
            raise ConfigInvalid(f"unknown output {output!r}; choose from {OUTPUTS}")
    if cfg.format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {FORMATS}, got {cfg.format!r}")
    t_start = None if cfg.t_start is None else _as_float(cfg.t_start, "t_start")
    t_end = None if cfg.t_end is None else _as_float(cfg.t_end, "t_end")
    kappa0 = _as_float(cfg.kappa0, "kappa0")
    lambda0 = _as_float(cfg.lambda0, "lambda0")
    kappa_vec = _as_vec(cfg.kappa_vec, "kappa_vec")
    lambda_vec = _as_vec(cfg.lambda_vec, "lambda_vec")
    if cfg.scenario == "su2-generic":
        if lambda0 != 0.0:
            raise ConfigInvalid("su2-generic requires lambda0 = 0 (no closed-form reference otherwise)")
        kv, lv = np.array(kappa_vec), np.array(lambda_vec)
        if kv @ kv <= lv @ lv:
            raise ConfigInvalid("su2-generic requires |kappa_vec| > |lambda_vec| (real frequency)")
        if abs(kv @ lv) > 1e-12:
            raise ConfigInvalid("su2-generic requires kappa_vec . lambda_vec = 0")
    return replace(
        cfg,
        gamma=gamma,
        omega=omega,
        dt=dt,
        zeta_constants=zeta,
        outputs=outputs,
        t_start=t_start,
        t_end=t_end,
        kappa0=kappa0,
        lambda0=lambda0,
        kappa_vec=kappa_vec,
        lambda_vec=lambda_vec,
    )


def _resolve_window(cfg: ScenarioConfig, default_start: float, natural_period: float):
    """Snap the requested window onto a whole number of dt steps."""
    t_start = cfg.t_start if cfg.t_start is not None else default_start
    span = (cfg.t_end - t_start) if cfg.t_end is not None else 2.0 * natural_period
    if span <= 0.0:
        raise ConfigInvalid(f"t_end must exceed t_start, got span {span}")
    n = max(1, round(span / cfg.dt))
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
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "mode": c.mode,
                    "status": "PASS" if c.passed else "FAIL",
                }
                for c in self.checks
            ],
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
# Series assembly helpers
# ----------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _matrix_header(prefix):
    return [f"{prefix}_{i}{j}_{part}" for i in (0, 1) for j in (0, 1) for part in ("re", "im")]


def _matrix_row(m):
    return [v for i in (0, 1) for j in (0, 1) for v in (m[i, j].real, m[i, j].imag)]


def _state_header(prefix):
    return [f"{prefix}_{k}_{part}" for k in (0, 1) for part in ("re", "im")]


def _state_row(v):
    return [x for k in (0, 1) for x in (v[k].real, v[k].imag)]


def _write_series(out_dir: Path, name: str, header, rows, cfg: ScenarioConfig):
    header = ["t"] + list(header)
    if cfg.format == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        path = out_dir / f"{name}.json"
        payload = {
            "metadata": _metadata(cfg),
            "columns": header,
            "samples": [dict(zip(header, [float(x) for x in row])) for row in rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def _metadata(cfg: ScenarioConfig) -> dict:
    echo = {
        "scenario": cfg.scenario,
        "gamma": cfg.gamma,
        "omega": cfg.omega,
        "zeta_constants": None if cfg.zeta_constants is None else list(cfg.zeta_constants),
        "t_start": cfg.t_start,
        "t_end": cfg.t_end,
        "dt": cfg.dt,
        "outputs": list(cfg.outputs),
        "format": cfg.format,
        "out_path": cfg.out_path,
        "kappa0": cfg.kappa0,
        "lambda0": cfg.lambda0,
        "kappa_vec": list(cfg.kappa_vec),
        "lambda_vec": list(cfg.lambda_vec),
    }
    return {"config": echo, "version": __version__}


def _subsample(n: int, want: int = 200) -> np.ndarray:
    step = max(1, n // want)
    return np.arange(0, n, step)


# ----------------------------------------------------------------------
# Yang-Lee pipelines
# ----------------------------------------------------------------------

def _yang_lee_closed(cfg: ScenarioConfig):
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    grid = _resolve_window(cfg, p.t0, p.period)
    ts = grid.times
    n = len(ts)
    h1m = h1_matrix(p)
    det_ref = p.phi**4 / p.gamma**2

    rho = np.stack([rho_closed(t, p) for t in ts])
    rho_dot = np.stack([rho_closed_dot(t, p) for t in ts])
    dyson_samples = [eta_closed(t, p) for t in ts]
    eta = np.stack([s.eta for s in dyson_samples])
    h = rabi_h(ts, p)
    u = np.stack([u_closed(t, p) for t in ts])
    h_tilde = np.stack([physical_hamiltonian(h1m, s) for s in dyson_samples])
    psi_p = np.stack([psi_pm(t, +1, p) for t in ts])
    psi_m = np.stack([psi_pm(t, -1, p) for t in ts])
    phi_p = np.einsum("nij,nj->ni", eta, psi_p)
    phi_m = np.einsum("nij,nj->ni", eta, psi_m)
    e_plus = np.array([energy_expectation(t, +1, p) for t in ts])
    e_minus = np.array([energy_expectation(t, -1, p) for t in ts])

    dets = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
    herm = lambda a: np.linalg.norm(a - np.conj(np.swapaxes(a, 1, 2)), axis=(1, 2))
    h_herm = herm(h)
    flow_residual = np.linalg.norm(
        h1m.conj().T @ rho - rho @ h1m - 1j * rho_dot, axis=(1, 2)
    )
    eta_sq = np.linalg.norm(eta @ eta - rho, axis=(1, 2))
    dyson_rel = np.array(
        [np.linalg.norm(hermitian_counterpart(h1m, s) - h[i]) for i, s in enumerate(dyson_samples)]
    )
    qh_tilde = np.array([quasi_hermiticity_residual(h_tilde[i], rho[i]) for i in range(n)])
    qh_raw = np.array([quasi_hermiticity_residual(h1m, rho[i]) for i in range(n)])
    ip_pp = np.einsum("ni,nij,nj->n", psi_p.conj(), rho, psi_p)
    ip_mm = np.einsum("ni,nij,nj->n", psi_m.conj(), rho, psi_m)
    ip_mp = np.einsum("ni,nij,nj->n", psi_m.conj(), rho, psi_p)
    ip_pm = np.einsum("ni,nij,nj->n", psi_p.conj(), rho, psi_m)
    e_p, e_m = (0.5 * (-p.omega + p.phi), 0.5 * (-p.omega - p.phi))
    psi_resid = max(
        float(np.max(np.linalg.norm(np.einsum("ij,nj->ni", h1m, psi_p) - e_p * psi_p, axis=1))),
        float(np.max(np.linalg.norm(np.einsum("ij,nj->ni", h1m, psi_m) - e_m * psi_m, axis=1))),
    )
    # phi = eta Psi solves the Hermitian equation; the derivative is analytic
    phi_resid = 0.0
    for sgn, psi_arr, phi_arr, energy in ((+1, psi_p, phi_p, e_p), (-1, psi_m, phi_m, e_m)):
        d_phi = np.stack(
            [
                dyson_samples[i].eta_dot @ psi_arr[i] - 1j * energy * (dyson_samples[i].eta @ psi_arr[i])
                for i in range(n)
            ]
        )
        resid = np.linalg.norm(np.einsum("nij,nj->ni", h, phi_arr) - 1j * d_phi, axis=1)
        phi_resid = max(phi_resid, float(np.max(resid)))
    # propagator checks: identity at the anchor, unitarity, TDSE by central differences
    u_t0 = u_closed(p.t0, p)
    fd_step = 1e-6
    sub = _subsample(n)
    u_tdse = 0.0
    for i in sub:
        t = ts[i]
        du = (u_closed(t + fd_step, p) - u_closed(t - fd_step, p)) / (2.0 * fd_step)
        u_tdse = max(u_tdse, float(np.linalg.norm(rabi_h(t, p) @ u_closed(t, p) - 1j * du)))
    uhu = np.conj(np.swapaxes(u, 1, 2)) @ u - IDENTITY[None, :, :]
    u_unitarity = np.linalg.norm(uhu, axis=(1, 2))
    basis = basis_states(p)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    energy_h = max(
        float(np.max(np.abs(np.einsum("ni,nij,nj->n", phi_p.conj(), h, phi_p).real - e_plus))),
        float(np.max(np.abs(np.einsum("ni,nij,nj->n", phi_m.conj(), h, phi_m).real - e_minus))),
    )
    energy_metric = max(
        float(
            np.max(
                np.abs(np.einsum("ni,nij,njk,nk->n", psi_p.conj(), rho, h_tilde, psi_p).real - e_plus)
            )
        ),
        float(
            np.max(
                np.abs(np.einsum("ni,nij,njk,nk->n", psi_m.conj(), rho, h_tilde, psi_m).real - e_minus)
            )
        ),
    )
    endpoint = max(
        abs(energy_expectation(p.t0, +1, p) - e_p),
        abs(energy_expectation(p.t0, -1, p) - e_m),
        abs(energy_expectation(-p.t0, +1, p) - 0.5 * (p.phi**3 - p.omega)),
        abs(energy_expectation(-p.t0, -1, p) - 0.5 * (-p.phi**3 - p.omega)),
    )

    checks = [
        Check("metric_hermitian", float(np.max(herm(rho))), 1e-12),
        Check("metric_flow_residual", float(np.max(flow_residual)), 1e-10),
        Check("det_rho_constant", float(np.max(np.abs(dets - det_ref))), 1e-10),
        Check("eta_squared_matches_rho", float(np.max(eta_sq)), 1e-10),
        Check("eta_hermitian", float(np.max(herm(eta))), 1e-12),
        Check("h_hermitian", float(np.max(h_herm)), 1e-12),
        Check("dyson_relation", float(np.max(dyson_rel)), 1e-9),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-9),
        Check("h1_not_quasi_hermitian", float(np.min(qh_raw)), 1e-2, mode="min_gt"),
        Check(
            "inner_product_unit",
            float(np.max(np.abs(np.concatenate([ip_pp - 1.0, ip_mm - 1.0])))),
            1e-9,
        ),
        Check(
            "inner_product_cross",
            float(
                np.max(
                    np.abs(
                        np.concatenate([ip_mp - 1j * p.gamma, ip_pm + 1j * p.gamma])
                    )
                )
            ),
            1e-9,
        ),
        Check("psi_tdse_residual", psi_resid, 1e-12),
        Check("phi_tdse_residual", phi_resid, 1e-8),
        Check("u_identity_at_anchor", float(np.linalg.norm(u_t0 - IDENTITY)), 1e-12),
        Check("u_unitary", float(np.max(u_unitarity)), 1e-12),
        Check("u_tdse_residual", u_tdse, 1e-8),
        Check(
            "basis_reconstruction",
            max(
                float(np.linalg.norm(basis.phi1 - e1)),
                float(np.linalg.norm(basis.phi2 - e2)),
            ),
            1e-10,
        ),
        Check("energy_matches_h_expectation", energy_h, 1e-9),
        Check("energy_matches_metric_expectation", energy_metric, 1e-9),
        Check("energy_endpoint_values", float(endpoint), 1e-12),
    ]

    series = {}
    alpha = 0.5 * (rho[:, 0, 0] + rho[:, 1, 1]).real
    beta_x = 0.5 * (rho[:, 0, 1] + rho[:, 1, 0]).real
    beta_y = (0.5j * (rho[:, 0, 1] - rho[:, 1, 0])).real
    beta_z = 0.5 * (rho[:, 0, 0] - rho[:, 1, 1]).real
    series["metric"] = (
        ["alpha", "beta_x", "beta_y", "beta_z", "det_rho"],
        lambda: [[ts[i], alpha[i], beta_x[i], beta_y[i], beta_z[i], dets[i]] for i in range(n)],
    )
    series["dyson"] = (
        _matrix_header("eta"),
        lambda: [[ts[i]] + _matrix_row(eta[i]) for i in range(n)],
    )
    series["hermitian_h"] = (
        _matrix_header("h"),
        lambda: [[ts[i]] + _matrix_row(h[i]) for i in range(n)],
    )
    series["propagator"] = (
        _matrix_header("u"),
        lambda: [[ts[i]] + _matrix_row(u[i]) for i in range(n)],
    )
    series["states"] = (
        _state_header("phi1") + _state_header("phi2"),
        lambda: [[ts[i]] + _state_row(u[i] @ e1) + _state_row(u[i] @ e2) for i in range(n)],
    )
    series["energies"] = (
        ["E_plus", "E_minus"],
        lambda: [[ts[i], e_plus[i], e_minus[i]] for i in range(n)],
    )
    series["invariants"] = (
        ["det_deviation", "eta_sq_residual", "h_hermiticity", "htilde_quasi_hermiticity", "u_unitarity"],
        lambda: [
            [
                ts[i],
                abs(dets[i] - det_ref),
                eta_sq[i],
                h_herm[i],
                qh_tilde[i],
                u_unitarity[i],
            ]
            for i in range(n)
        ],
    )
    return VerificationReport(cfg.scenario, tuple(checks)), series


def _yang_lee_numeric(cfg: ScenarioConfig):
    p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
    grid = _resolve_window(cfg, p.t0, p.period)
    ts = grid.times
    n = len(ts)
    h1m = h1_matrix(p)
    det_ref = p.phi**4 / p.gamma**2

    flow = integrate_metric(h1_su2(p), rho_closed(grid.t_start, p), grid)
    rho_num = flow.series.samples
    dys = dyson_from_metric(flow.series)
    eta_num = dys.eta
    h_num = np.stack([hermitian_counterpart(h1m, dys[i]) for i in range(n)])
    h_tilde = np.stack([physical_hamiltonian(h1m, dys[i]) for i in range(n)])
    u_series = propagator_series(lambda t: rabi_h(t, p), grid)
    u_num = u_series.samples

    rho_ref = np.stack([rho_closed(t, p) for t in ts])
    eta_ref = np.stack([eta_closed(t, p).eta for t in ts])
    h_ref = rabi_h(ts, p)
    u_anchor = u_closed(grid.t_start, p)
    u_ref = np.stack([u_closed(t, p) @ u_anchor.conj().T for t in ts])

    herm = lambda a: np.linalg.norm(a - np.conj(np.swapaxes(a, 1, 2)), axis=(1, 2))
    dets = (rho_num[:, 0, 0] * rho_num[:, 1, 1] - rho_num[:, 0, 1] * rho_num[:, 1, 0]).real
    dev_metric = np.linalg.norm(rho_num - rho_ref, axis=(1, 2))
    dev_eta = np.linalg.norm(eta_num - eta_ref, axis=(1, 2))
    dev_h = np.linalg.norm(h_num - h_ref, axis=(1, 2))
    dev_u = np.linalg.norm(u_num - u_ref, axis=(1, 2))
    uhu = np.conj(np.swapaxes(u_num, 1, 2)) @ u_num - IDENTITY[None, :, :]
    unitarity = np.linalg.norm(uhu, axis=(1, 2))
    qh_tilde = np.array([quasi_hermiticity_residual(h_tilde[i], rho_num[i]) for i in range(n)])

    sub = _subsample(n)
    inner_drift = 0.0
    nonunitarity = 0.0
    eta0 = dys[0].eta
    for i in sub:
        u_big = invert_dyson_map(eta_num[i]) @ u_num[i] @ eta0
        nonunitarity = max(nonunitarity, float(np.linalg.norm(u_big.conj().T @ u_big - IDENTITY)))
        for sgn in (+1, -1):
            psi0 = psi_pm(grid.t_start, sgn, p)
            moved = u_big @ psi0
            inner_drift = max(
                inner_drift, abs(complex(moved.conj() @ rho_num[i] @ moved) - 1.0)
            )

    checks = [
        Check("metric_numeric_vs_closed", float(np.max(dev_metric)), 1e-8),
        Check("metric_hermitian", float(np.max(herm(rho_num))), 1e-10),
        Check("det_rho_drift", float(np.max(np.abs(dets - det_ref))), 1e-8),
        Check("positivity_maintained", float(np.min(dets)), 0.0, mode="min_gt"),
        Check("eta_numeric_vs_closed", float(np.max(dev_eta)), 1e-8),
        Check("h_numeric_vs_closed", float(np.max(dev_h)), 1e-6),
        Check("h_hermitian", float(np.max(herm(h_num))), 1e-6),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-6),
        Check("u_numeric_vs_closed", float(np.max(dev_u)), 1e-7),
        Check("u_unitary", float(np.max(unitarity)), 1e-9),
        Check("rho_inner_preserved", float(inner_drift), 1e-7),
        Check("nonunitary_flat_metric", float(nonunitarity), 1e-2, mode="min_gt"),
    ]
    if flow.positivity_lost_at is not None:
        checks.append(Check("positivity_lost_time", flow.positivity_lost_at, 0.0, mode="min_gt"))

    phi_p = np.einsum("nij,nj->ni", eta_num, np.stack([psi_pm(t, +1, p) for t in ts]))
    phi_m = np.einsum("nij,nj->ni", eta_num, np.stack([psi_pm(t, -1, p) for t in ts]))
    e_plus = np.einsum("ni,nij,nj->n", phi_p.conj(), h_num, phi_p).real
    e_minus = np.einsum("ni,nij,nj->n", phi_m.conj(), h_num, phi_m).real

    alpha = 0.5 * (rho_num[:, 0, 0] + rho_num[:, 1, 1]).real
    beta_x = 0.5 * (rho_num[:, 0, 1] + rho_num[:, 1, 0]).real
    beta_y = (0.5j * (rho_num[:, 0, 1] - rho_num[:, 1, 0])).real
    beta_z = 0.5 * (rho_num[:, 0, 0] - rho_num[:, 1, 1]).real
    series = {
        "metric": (
            ["alpha", "beta_x", "beta_y", "beta_z", "det_rho"],
            lambda: [[ts[i], alpha[i], beta_x[i], beta_y[i], beta_z[i], dets[i]] for i in range(n)],
        ),
        "dyson": (_matrix_header("eta"), lambda: [[ts[i]] + _matrix_row(eta_num[i]) for i in range(n)]),
        "hermitian_h": (_matrix_header("h"), lambda: [[ts[i]] + _matrix_row(h_num[i]) for i in range(n)]),
        "propagator": (_matrix_header("u"), lambda: [[ts[i]] + _matrix_row(u_num[i]) for i in range(n)]),
        "states": (
            _state_header("phi1") + _state_header("phi2"),
            lambda: [[ts[i]] + _state_row(u_num[i][:, 0]) + _state_row(u_num[i][:, 1]) for i in range(n)],
        ),
        "energies": (
            ["E_plus", "E_minus"],
            lambda: [[ts[i], e_plus[i], e_minus[i]] for i in range(n)],
        ),
        "invariants": (
            [
                "metric_vs_closed",
                "det_deviation",
                "eta_vs_closed",
                "h_vs_closed",
                "u_vs_closed",
                "u_unitarity",
                "htilde_quasi_hermiticity",
            ],
            lambda: [
                [
                    ts[i],
                    dev_metric[i],
                    abs(dets[i] - det_ref),
                    dev_eta[i],
                    dev_h[i],
                    dev_u[i],
                    unitarity[i],
                    qh_tilde[i],
                ]
                for i in range(n)
            ],
        ),
    }
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
    if cfg.zeta_constants is not None:
        zeta = ZetaConstants(*cfg.zeta_constants)
    else:
        zeta = ZetaConstants(c1=0.0, c2=0.0, c3=-1.0, c4=0.0)
    k2 = float(np.array(cfg.kappa_vec) @ np.array(cfg.kappa_vec))
    l2 = float(np.array(cfg.lambda_vec) @ np.array(cfg.lambda_vec))
    period = 2.0 * math.pi / math.sqrt(k2 - l2)
    return h, zeta, period


def _su2_generic(cfg: ScenarioConfig):
    h, zeta, period = _su2_config(cfg)
    grid = _resolve_window(cfg, 0.0, period)
    ts = grid.times
    n = len(ts)
    hm = h.matrix()
    lambda_norm = float(np.linalg.norm(h.lambda_vec))

    states = [zeta_metric(t, h, zeta) for t in ts]
    rho_ref = np.stack([s.matrix() for s in states])
    margins = np.array([positivity_margin(s) for s in states])
    if np.min(margins) <= 0.0:
        raise ConfigInvalid(
            f"zeta_constants give a non-positive metric (min det rho = {np.min(margins):.6g}); "
            "choose constants with det > 0"
        )
    flow = integrate_metric(h, rho_ref[0], grid)
    rho_num = flow.series.samples
    dys = dyson_from_metric(flow.series)
    eta_num = dys.eta
    h_num = np.stack([hermitian_counterpart(hm, dys[i]) for i in range(n)])
    h_tilde = np.stack([physical_hamiltonian(hm, dys[i]) for i in range(n)])

    herm = lambda a: np.linalg.norm(a - np.conj(np.swapaxes(a, 1, 2)), axis=(1, 2))
    h_herm = herm(h_num)
    dets = (rho_num[:, 0, 0] * rho_num[:, 1, 1] - rho_num[:, 0, 1] * rho_num[:, 1, 0]).real
    dev_metric = np.linalg.norm(rho_num - rho_ref, axis=(1, 2))
    eta_sq = np.linalg.norm(eta_num @ eta_num - rho_num, axis=(1, 2))
    qh_tilde = np.array([quasi_hermiticity_residual(h_tilde[i], rho_num[i]) for i in range(n)])

    # coefficient-flow residual of the closed form, via fourth-order differences
    fd = 1e-3
    flow_resid = 0.0
    for i in _subsample(n, want=50):
        t = ts[i]
        stencil = [zeta_metric(t + k * fd, h, zeta) for k in (-2, -1, 1, 2)]
        alpha_dot = (stencil[0].alpha - 8 * stencil[1].alpha + 8 * stencil[2].alpha - stencil[3].alpha) / (12 * fd)
        beta_dot = (
            stencil[0].beta_vec - 8 * stencil[1].beta_vec + 8 * stencil[2].beta_vec - stencil[3].beta_vec
        ) / (12 * fd)
        s = zeta_metric(t, h, zeta)
        r_alpha = abs(alpha_dot + s.beta_vec @ h.lambda_vec)
        r_beta = np.linalg.norm(
            beta_dot - (np.cross(h.kappa_vec, s.beta_vec) - s.alpha * h.lambda_vec)
        )
        flow_resid = max(flow_resid, float(r_alpha), float(r_beta))

    checks = [
        Check("metric_flow_residual_fd", flow_resid, 1e-9),
        Check("metric_numeric_vs_closed", float(np.max(dev_metric)), 1e-8),
        Check("metric_hermitian", float(np.max(herm(rho_num))), 1e-10),
        Check("det_rho_drift", float(np.max(np.abs(dets - margins))), 1e-8),
        Check("positivity_maintained", float(np.min(dets)), 0.0, mode="min_gt"),
        Check("eta_squared_matches_rho", float(np.max(eta_sq)), 1e-10),
        Check("h_hermitian", float(np.max(h_herm)), 1e-6),
        Check("htilde_quasi_hermitian", float(np.max(qh_tilde)), 1e-6),
    ]
    if lambda_norm == 0.0:
        checks.append(
            Check("h_matches_static_h", float(np.max(np.linalg.norm(h_num - hm, axis=(1, 2)))), 1e-6)
        )

    series = {
        "metric": (
            ["alpha", "beta_x", "beta_y", "beta_z", "det_rho"],
            lambda: [
                [ts[i], states[i].alpha] + list(states[i].beta_vec) + [dets[i]]
                for i in range(n)
            ],
        ),
        "dyson": (_matrix_header("eta"), lambda: [[ts[i]] + _matrix_row(eta_num[i]) for i in range(n)]),
        "hermitian_h": (_matrix_header("h"), lambda: [[ts[i]] + _matrix_row(h_num[i]) for i in range(n)]),
        "invariants": (
            ["metric_vs_closed", "det_deviation", "eta_sq_residual", "h_hermiticity", "htilde_quasi_hermiticity"],
            lambda: [
                [
                    ts[i],
                    dev_metric[i],
                    abs(dets[i] - margins[i]),
                    eta_sq[i],
                    h_herm[i],
                    qh_tilde[i],
                ]
                for i in range(n)
            ],
        ),
    }
    if any(o in cfg.outputs for o in ("propagator", "states", "energies")):
        h_source = _su2_h_source(h, zeta)
        u_series = propagator_series(h_source, grid)
        u_num = u_series.samples
        series["propagator"] = (
            _matrix_header("u"),
            lambda: [[ts[i]] + _matrix_row(u_num[i]) for i in range(n)],
        )
        series["states"] = (
            _state_header("phi1") + _state_header("phi2"),
            lambda: [[ts[i]] + _state_row(u_num[i][:, 0]) + _state_row(u_num[i][:, 1]) for i in range(n)],
        )
        e_1 = np.einsum("ni,nij,nj->n", u_num[:, :, 0].conj(), h_num, u_num[:, :, 0]).real
        e_2 = np.einsum("ni,nij,nj->n", u_num[:, :, 1].conj(), h_num, u_num[:, :, 1]).real
        series["energies"] = (
            ["E_1", "E_2"],
            lambda: [[ts[i], e_1[i], e_2[i]] for i in range(n)],
        )
        uhu = np.conj(np.swapaxes(u_num, 1, 2)) @ u_num - IDENTITY[None, :, :]
        checks.append(Check("u_unitary", float(np.max(np.linalg.norm(uhu, axis=(1, 2)))), 1e-9))

    return VerificationReport(cfg.scenario, tuple(checks)), series


def _su2_h_source(h: SU2Hamiltonian, zeta: ZetaConstants):
    """Exact Hermitian Hamiltonian source of the closed-form metric, batched in t.

    Given a 1-D array of times, the source evaluates the zeta_metric
    coefficients at all of them and returns the (m, 2, 2) stack of
    h = (eta H + i eta_dot) eta^-1. rho_dot is the flow -i (H^dag rho - rho H)
    itself, eta = sqrt(rho) the closed-form root and eta_dot its analytic
    derivative, the solution of eta X + X eta = rho_dot; no step is a finite
    difference.
    """
    hm = h.matrix()

    def source(t):
        alpha, beta = zeta_coefficients(t, h, zeta)
        rho = alpha[:, None, None] * IDENTITY + np.einsum("nj,jkl->nkl", beta, PAULIS)
        eta = hermitian_sqrt(rho)
        eta_dot = hermitian_sqrt_derivative(eta, metric_rhs(h, rho))
        return (eta @ hm + 1j * eta_dot) @ np.linalg.inv(eta)

    return source


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------

_PIPELINES = {
    "yang-lee-closed": _yang_lee_closed,
    "yang-lee-numeric": _yang_lee_numeric,
    "su2-generic": _su2_generic,
}


def run_scenario(cfg: ScenarioConfig, write_files: bool = True):
    """Execute a scenario, optionally writing requested series plus report.json.

    Pipelines return each series as (header, build_rows); rows are built
    only for the requested outputs, one series at a time, as it is written.
    """
    report, series = _PIPELINES[cfg.scenario](cfg)
    written = []
    if write_files:
        out_dir = Path(cfg.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in cfg.outputs:
            if name not in series:
                continue
            header, build_rows = series[name]
            written.append(_write_series(out_dir, name, header, build_rows(), cfg))
        report_path = out_dir / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"metadata": _metadata(cfg), "report": report.to_dict()},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        written.append(report_path)
    return report, written


def _sweep_row(cfg: ScenarioConfig):
    """Aggregates for one sweep row, always through the numeric pipeline."""
    if cfg.scenario == "su2-generic":
        h, zeta, period = _su2_config(cfg)
        grid = _resolve_window(replace(cfg, t_end=None), 0.0, 0.5 * period)
        ts = grid.times
        rho_ref = np.stack([zeta_metric(t, h, zeta).matrix() for t in ts])
        flow = integrate_metric(h, rho_ref[0], grid)
        hm = h.matrix()
        u_dev = None
    else:
        p = YangLeeParams(gamma=cfg.gamma, omega=cfg.omega)
        if cfg.t_start is not None and cfg.t_end is not None:
            grid = _resolve_window(cfg, p.t0, 0.5 * p.period)
        else:
            grid = _resolve_window(replace(cfg, t_end=None), p.t0, 0.5 * p.period)
        ts = grid.times
        rho_ref = np.stack([rho_closed(t, p) for t in ts])
        flow = integrate_metric(h1_su2(p), rho_ref[0], grid)
        hm = h1_matrix(p)
        u_series = propagator_series(lambda t: rabi_h(t, p), grid)
        u_anchor = u_closed(grid.t_start, p)
        u_ref = np.stack([u_closed(t, p) @ u_anchor.conj().T for t in ts])
        u_dev = float(np.max(np.linalg.norm(u_series.samples - u_ref, axis=(1, 2))))

    rho_num = flow.series.samples
    dets = (rho_num[:, 0, 0] * rho_num[:, 1, 1] - rho_num[:, 0, 1] * rho_num[:, 1, 0]).real
    dys = dyson_from_metric(flow.series)
    n = len(ts)
    qh = max(
        quasi_hermiticity_residual(physical_hamiltonian(hm, dys[i]), rho_num[i])
        for i in _subsample(n)
    )
    dev = float(np.max(np.linalg.norm(rho_num - rho_ref, axis=(1, 2))))
    if u_dev is not None:
        dev = max(dev, u_dev)
    return float(np.min(dets)), float(qh), dev


def sweep(cfg: ScenarioConfig, parameter: str, values, write_files: bool = True):
    """One numeric run per parameter value; rows ordered by ascending value."""
    if parameter not in SWEEP_PARAMS:
        raise ConfigInvalid(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    if not values:
        raise ConfigInvalid("sweep needs at least one value")
    values = [_as_float(v, parameter) for v in values]
    rows = []
    for value in sorted(values):
        row_cfg = validate_config(replace(cfg, **{parameter: value}))
        rows.append([value, *_sweep_row(row_cfg)])
    header = [
        parameter,
        "min_positivity_margin",
        "max_quasi_hermiticity_residual",
        "max_closed_vs_numeric_deviation",
    ]
    written = []
    if write_files:
        out_dir = Path(cfg.out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.format == "csv":
            path = out_dir / f"sweep_{parameter}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(x) for x in row) + "\n")
        else:
            path = out_dir / f"sweep_{parameter}.json"
            payload = {
                "metadata": _metadata(cfg),
                "columns": header,
                "rows": [dict(zip(header, [float(x) for x in row])) for row in rows],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        written.append(path)
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
