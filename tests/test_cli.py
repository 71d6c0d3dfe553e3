"""Front-end behavior: verbs, exit codes, reproducible files, schema stability."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from dysonflow import (
    DysonSample,
    IntegrationGrid,
    MetricFlow,
    TimeSeries,
    _format,
    cli,
    dyson_from_metric,
    frobenius_norm,
    hermitian_counterpart,
    hermitian_sqrt,
    integrate_metric,
    zeta_metric,
)
from dysonflow._parallel import _fork_map
from dysonflow.dyson import dyson_forms, dyson_relation_forms
from dysonflow.errors import NotPositiveDefinite, StepTooLarge
from dysonflow.su2 import dagger, pauli_compose, require_pd_form

T0 = -1.8137993642342178  # anchor time for gamma = 1/2


def write_config(path, **overrides):
    cfg = {
        "scenario": "yang-lee-closed",
        "gamma": 0.5,
        "omega": 1.0,
        "t_start": T0,
        "t_end": T0 + 2.0,
        "dt": 1e-3,
        "outputs": ["metric", "energies"],
        "format": "csv",
        "out_path": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


def test_run_writes_series_and_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert cli.main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "metric.csv").exists()
    assert (out / "energies.csv").exists()
    assert (out / "report.json").exists()
    header = (out / "metric.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert header == "t,alpha,beta_x,beta_y,beta_z,det_rho"
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["overall"] == "PASS"
    assert report["metadata"]["config"]["gamma"] == 0.5


def test_run_outputs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dt=5e-3)
    assert cli.main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "metric.csv").read_bytes()
    first_report = (tmp_path / "out" / "report.json").read_bytes()
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "metric.csv").read_bytes() == first
    assert (tmp_path / "out" / "report.json").read_bytes() == first_report


def test_verify_writes_nothing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, out_path=str(tmp_path / "none"))
    assert cli.main(["verify", str(cfg_path)]) == 0
    assert not (tmp_path / "none").exists()


def test_energy_column_range_over_one_period(tmp_path):
    p_period = 2.0 * math.pi / (math.sqrt(3.0) / 2.0)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_end=T0 + p_period, dt=5e-3, outputs=["energies"])
    assert cli.main(["run", str(cfg_path)]) == 0
    rows = (tmp_path / "out" / "energies.csv").read_text().splitlines()
    e_plus = np.array([float(line.split(",")[1]) for line in rows[1:]])
    phi = math.sqrt(3.0) / 2.0
    assert abs(e_plus.max() - 0.5 * (-1.0 + phi)) < 1e-6
    assert abs(e_plus.min() - 0.5 * (phi**3 - 1.0)) < 1e-6


def test_json_format_mirrors_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, format="json", dt=1e-2, t_end=T0 + 1.0, outputs=["metric"])
    assert cli.main(["run", str(cfg_path)]) == 0
    payload = json.loads((tmp_path / "out" / "metric.json").read_text())
    assert payload["columns"][0] == "t"
    assert payload["metadata"]["config"]["scenario"] == "yang-lee-closed"
    assert len(payload["samples"]) == 101
    assert abs(payload["samples"][0]["det_rho"] - 2.25) < 1e-10


def test_flag_overrides_beat_file_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dt=1e-2, t_end=T0 + 1.0, outputs=[])
    out2 = tmp_path / "other"
    assert cli.main(["run", str(cfg_path), "--gamma", "0.25", "--out", str(out2)]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert report["metadata"]["config"]["gamma"] == 0.25


def test_numeric_scenario_near_breakdown_reports_margin(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    gamma = 0.999
    t0 = -math.pi / (2.0 * math.sqrt(1.0 - gamma**2))
    write_config(
        cfg_path,
        scenario="yang-lee-numeric",
        gamma=gamma,
        t_start=t0,
        t_end=t0 + 2.0,
        outputs=[],
    )
    assert cli.main(["run", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    margin = next(
        c for c in report["report"]["checks"] if c["name"] == "positivity_maintained"
    )
    expected = (1.0 - gamma**2) ** 2 / gamma**2  # about 4.0e-6, close to breakdown
    assert margin["status"] == "PASS"
    assert abs(margin["value"] - expected) < 1e-9


def test_failed_checks_exit_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path, scenario="yang-lee-numeric", t_start=0.0, t_end=2.0, dt=0.05, outputs=[]
    )
    assert cli.main(["verify", str(cfg_path)]) == 1


def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "unknown"}), encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    bad.write_text(json.dumps({"scenario": "yang-lee-closed", "gamma": 1.5}), encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    bad.write_text(json.dumps({"scenario": "yang-lee-closed", "typo_key": 1}), encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    bad.write_text("not json", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    for malformed in (
        {"outputs": 5},
        {"outputs": "metric"},
        {"outputs": [["metric"]]},
        {"out_path": None},
        {"out_path": 7},
        {"out_path": ["a"]},
    ):
        bad.write_text(json.dumps({"scenario": "yang-lee-closed", **malformed}), encoding="utf-8")
        assert cli.main(["run", str(bad)]) == 2, malformed


@pytest.mark.parametrize(
    "field",
    ["gamma", "omega", "dt", "t_start", "t_end", "kappa0", "lambda0", "kappa_vec", "lambda_vec", "zeta_constants"],
)
def test_every_numeric_field_refuses_what_is_not_a_finite_number(field, tmp_path, capsys):
    # every scenario parses every numeric field through one parser, even one
    # it does not read: a bool, a string, Infinity (which json reads) and, for
    # a list, a wrong length or a bad element are refused by name before
    # anything is written
    out = tmp_path / "out"
    bad = [True, "0.5", math.inf]
    if field in ("kappa_vec", "lambda_vec", "zeta_constants"):
        n = 4 if field == "zeta_constants" else 3
        bad += [[0.0] * (n - 1), [0.0] * (n + 1), [0.0] * (n - 1) + [math.inf], [0.0] * (n - 1) + [False]]
    cfg_path = tmp_path / "cfg.json"
    for base in ({"scenario": "yang-lee-closed", "out_path": str(out)}, rotated_yang_lee_config(0.6, out)):
        for value in bad:
            cfg_path.write_text(json.dumps({**base, field: value}), encoding="utf-8")
            assert cli.main(["run", str(cfg_path)]) == 2, (base["scenario"], value)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field} must be "), err
            assert not out.exists()


@pytest.mark.parametrize(
    "param, values, message",
    [
        ("gamma", "0.5,1.5", "Yang-Lee scenarios: gamma must lie in (0, 1), got 1.5"),
        ("dt", "0.01,2.0", "the window spans at most half a dt step (span 1, dt 2)"),
    ],
)
def test_a_sweep_with_a_refused_value_is_refused_whole_before_anything_runs(
    param, values, message, tmp_path, monkeypatch, capsys
):
    # every value is validated and its window resolved before out_path is
    # made or a worker forked, so no value runs, even one that sorts first
    forks = use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_sweep_row", lambda *_: pytest.fail("a value ran"))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    write_config(
        cfg_path, scenario="yang-lee-numeric", t_start=0.0, t_end=1.0, dt=1e-2, outputs=[], out_path=str(out)
    )
    assert cli.main(["sweep", str(cfg_path), "--param", param, "--values", values]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() and forks == []


def test_sweep_gamma_margin_column(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_start=0.0, t_end=1.0, dt=2e-3, outputs=[])
    assert cli.main(["sweep", str(cfg_path), "--param", "gamma", "--values", "0.5,0.3,0.7"]) == 0
    rows = (tmp_path / "out" / "sweep_gamma.csv").read_text().splitlines()
    assert rows[0] == (
        "gamma,min_positivity_margin,max_quasi_hermiticity_residual,"
        "max_closed_vs_numeric_deviation"
    )
    values = [list(map(float, line.split(","))) for line in rows[1:]]
    assert [v[0] for v in values] == [0.3, 0.5, 0.7]  # ascending
    for gamma, margin, _qh, dev in values:
        assert abs(margin - (1.0 - gamma**2) ** 2 / gamma**2) < 1e-6
        assert dev < 1e-8


def test_sweep_dt_deviation_shrinks_fourth_order(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_start=0.0, t_end=1.0, outputs=[])
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01,0.005,0.0025"]) == 0
    rows = (tmp_path / "out" / "sweep_dt.csv").read_text().splitlines()[1:]
    devs = [float(line.split(",")[3]) for line in rows]  # ascending dt order
    assert 8.0 < devs[1] / devs[0] < 30.0
    assert 8.0 < devs[2] / devs[1] < 30.0


def test_sweep_empty_values_exit_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, outputs=[])
    assert cli.main(["sweep", str(cfg_path), "--param", "gamma", "--values", ""]) == 2
    assert cli.main(["sweep", str(cfg_path), "--param", "gamma", "--values", "a,b"]) == 2


def test_su2_generic_hermitian_limit(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {
        "scenario": "su2-generic",
        "t_start": 0.0,
        "t_end": 2.0,
        "dt": 1e-3,
        "kappa0": 0.5,
        "kappa_vec": [0.0, 0.0, -1.0],
        "lambda_vec": [0.0, 0.0, 0.0],
        "outputs": ["metric", "hermitian_h"],
        "out_path": str(tmp_path / "out"),
    }
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    names = [c["name"] for c in report["report"]["checks"]]
    assert "h_matches_static_h" in names
    assert report["report"]["overall"] == "PASS"
    # constant metric: alpha stays |kappa|^2 = 1 and beta stays 0
    rows = (tmp_path / "out" / "metric.csv").read_text().splitlines()[1:]
    for line in (rows[0], rows[-1]):
        _t, alpha, bx, by, bz, det = map(float, line.split(","))
        assert abs(alpha - 1.0) < 1e-12
        assert max(abs(bx), abs(by), abs(bz)) < 1e-12
        assert abs(det - 1.0) < 1e-12


def test_su2_generic_config_guards(tmp_path):
    base = {
        "scenario": "su2-generic",
        "dt": 1e-2,
        "kappa_vec": [0.0, 0.0, -1.0],
        "lambda_vec": [-0.5, 0.0, 0.0],
        "out_path": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**base, "lambda0": 0.3}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({**base, "lambda_vec": [-1.5, 0.0, 0.0]}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({**base, "lambda_vec": [-0.5, 0.0, 0.3]}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "zeta, message, lambda_x",
    [
        # det rho = 0.75 > 0 but alpha = -1: negative definite for all t
        ([0.0, 0.0, 1.0, 0.0], "(alpha = -1, det rho = 0.75)", -0.5),
        # det rho = -1: indefinite for all t
        ([0.0, 0.0, 0.0, 1.0], "(alpha = 0, det rho = -1)", -0.5),
        # alpha^2 and |beta|^2 overflow: det rho = inf - inf
        ([0.0, -1e200, -1e200, 0.0], "(alpha = 1e+200, det rho = nan)", -0.5),
        # alpha^2 overflows: det rho = inf
        ([0.0, 0.0, -1e155, 0.0], "(alpha = 1e+155, det rho = inf)", -1e-10),
    ],
)
def test_su2_generic_refuses_zeta_constants_without_a_positive_metric(zeta, message, lambda_x, tmp_path, capsys):
    # kappa = -e_z, lambda = lambda_x e_x: det rho = (1 - lambda_x^2) c3^2 - c4^2 - lambda_x^2 (c1^2 + c2^2);
    # a det that overflows to inf or NaN is refused too, not integrated
    out = tmp_path / "out"
    cfg = {
        "scenario": "su2-generic",
        "t_start": 0.0,
        "t_end": 0.5,
        "dt": 1e-2,
        "kappa_vec": [0.0, 0.0, -1.0],
        "lambda_vec": [lambda_x, 0.0, 0.0],
        "zeta_constants": zeta,
        "outputs": ["metric"],
        "out_path": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for argv in (["run"], ["verify"], ["sweep", "--param", "dt", "--values", "0.01,0.005"]):
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main([argv[0], str(cfg_path), *argv[1:]]) == 2, argv
        assert capsys.readouterr().err == (
            "config error: su2-generic: zeta_constants give a metric that is not "
            f"positive definite {message}\n"
        )
        assert not out.exists(), argv



@pytest.mark.parametrize("scenario", ["yang-lee-closed", "yang-lee-numeric"])
def test_yang_lee_scenarios_refuse_zeta_constants(scenario, tmp_path, capsys):
    # gamma and omega fix the Yang-Lee metric constants: even the canonical
    # ones are refused, and the message points to su2-generic
    p = cli.YangLeeParams(gamma=0.5, omega=1.0)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    for zeta in (list(astuple(cli.rho_closed_constants(p))), [0.0, 0.0, -1.0, 0.0]):
        write_config(cfg_path, scenario=scenario, zeta_constants=zeta, out_path=str(out))
        for argv in (["run"], ["verify"], ["sweep", "--param", "gamma", "--values", "0.5"]):
            assert cli.main([argv[0], str(cfg_path), *argv[1:]]) == 2, (zeta, argv)
            assert capsys.readouterr().err == (
                "config error: yang-lee scenarios take no zeta_constants; "
                "use the su2-generic scenario for them\n"
            )
            assert not out.exists(), argv

# sha256 of each CSV and of report.json written by the configuration below.
# The six closed-form series were recorded before the numeric kernels were
# batched and have kept their bytes since, but for one column: metric's
# det_rho moved (6 fields, max |new - old| 8.9e-16) when the closed chain
# took the numeric one's real Pauli forms and det rho became pauli_det of
# rho's form; its alpha and beta columns kept their bytes. The invariants
# were re-recorded when the
# 2x2 products went entry by entry (su2.mul), the states, propagator and
# invariants when u_closed stopped taking tan and arctan, whose bits depend
# on numpy's SIMD loops (all three hold the same bytes on numpy's AVX2 and
# AVX512 loops), and the invariants again when invert_dyson_map took its
# determinant from su2.det. The report pins rho_closed_dot, whose only use
# is the metric_flow_residual check; it moved, in u_tdse_residual alone,
# when that check took du/dt from theta_dot instead of central differences.
# hermitian_h was re-recorded when rabi_h stopped writing -0.0 into its zero
# entries: 303 fields (h_01_re, h_10_re, h_11_im) went from -0 to 0, max
# |new - old| 0. metric, invariants and the report moved with that real Pauli
# chain: invariants by max |new - old| 8.9e-16 (h_hermiticity, 0 before, now
# the raw Dyson relation's anti-Hermitian rest, up to 3.2e-16), the report in
# h_hermitian (0 -> 3.2e-16), eta_squared_matches_rho, dyson_relation and
# htilde_quasi_hermitian (each by at most 1.6e-16)
GOLDEN_CLOSED = {
    "metric": "2a7256ab573739ff845cc647939aa53de0f32ce772fc58aa133b1643cec42b65",
    "dyson": "10f8c6cb30a31419cbf9f10e74493b5a2b560c48d0b99510094a94479b5c57ed",
    "hermitian_h": "94ac849caa4fd8026f13d55060dd3e77a751aa179cc8f25876c0a4ee8b3b0aa7",
    "states": "0e26a563d61d0c08a61c6b571d6f19788123e628070f8615aa15040823e704d0",
    "propagator": "65d0f68f5db1767abf5ebf5ad0491454c6a5f07fb3dd4ca2f384fa3a9d626262",
    "energies": "753e8900090c35089a37ff919493ff501bf7a2d994220708293fcc55924f253c",
    "invariants": "315391326440ef083cfd105777b6db66858364df729bad430757dbc518c76d0c",
    "report": "493f09604119e564e9f3b43f24ca0910d04a55e8ba477981e090a4d121668a2f",
}


def test_closed_scenario_csv_matches_golden_hashes(tmp_path, monkeypatch):
    cfg = {
        "scenario": "yang-lee-closed", "gamma": 0.37, "omega": 0.8,
        "t_start": -0.25, "t_end": 0.75, "dt": 0.01,
    }
    assert_run_matches_golden(cfg, GOLDEN_CLOSED, tmp_path, monkeypatch)


def rotated_yang_lee_config(lam, out_path, **overrides):
    """Yang-Lee coefficients kappa = -e_z, lambda = -lam e_x turned by 40 degrees about (1, 1, 1)."""
    n = np.ones(3) / math.sqrt(3.0)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    a = math.radians(40.0)
    rot = np.eye(3) + math.sin(a) * k + (1.0 - math.cos(a)) * k @ k
    phi = math.sqrt(1.0 - lam**2)
    cfg = {
        "scenario": "su2-generic",
        "kappa0": -1.0,
        "kappa_vec": list(rot @ [0.0, 0.0, -1.0]),
        "lambda_vec": list(rot @ [-lam, 0.0, 0.0]),
        "zeta_constants": [0.0, -phi / lam, -1.0 / lam, 0.0],
        "out_path": str(out_path),
    }
    cfg.update(overrides)
    return cfg


def test_h_hermitian_reads_the_raw_h_anti_hermitian_rest():
    # h_hermitian is twice the norm of the imaginary Pauli form of h, the
    # rounding rest the kernel computes, never a zero by construction: on the
    # rotated Yang-Lee config near the exceptional point, and in
    # yang-lee-closed, whose chain runs on eta_closed's forms, over its
    # default window from gamma 3e-3 to 0.995 at two omegas (3.4e-18 to
    # 1.1e-13; at gamma 0.9999 it reads 7.4e-12 and fails)
    configs = [rotated_yang_lee_config(0.9999, "unused", t_start=0.0, t_end=20.0, dt=0.01)]
    configs += [{"scenario": "yang-lee-closed", "gamma": g, "omega": w} for g in (3e-3, 0.5, 0.995) for w in (1.0, 0.8)]
    for raw in configs:
        report, _ = cli.run_scenario(cli.validate_config(cli.ScenarioConfig(**raw)), write_files=False)
        check = {c.name: c for c in report.checks}["h_hermitian"]
        assert 0.0 < check.value <= check.tolerance, raw
        assert report.overall_pass, raw


def test_a_wrong_eta_dot_fails_the_closed_h_hermitian(tmp_path, monkeypatch, capsys):
    # the closed h_hermitian reads the raw Dyson relation of eta_closed's eta
    # and eta_dot, so an eta_dot off by one part in 10^6 leaves h an
    # anti-Hermitian rest far above rounding (7.1e-7 over the default window)
    real = cli.eta_closed

    def scaled(t, p):
        eta, eta_dot = real(t, p).forms
        return DysonSample(t, forms=(eta, eta_dot * (1.0 + 1e-6)))

    monkeypatch.setattr(cli, "eta_closed", scaled)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, outputs=[])
    assert cli.main(["verify", str(cfg_path)]) == 1
    [line] = [line for line in capsys.readouterr().out.splitlines() if line.split()[0] == "h_hermitian"]
    assert line.endswith("FAIL")


def test_h_stays_accurate_near_the_exceptional_point():
    # h takes i eta_dot eta^-1 directly (dyson_relation_forms); conjugating
    # Htilde, whose i eta^-1 eta_dot term is large near the EP, missed rabi_h
    # by 1.2e-9 here, against 1.7e-12 now
    p = cli.YangLeeParams(gamma=0.9999, omega=1.0)
    cfg = cli.validate_config(
        cli.ScenarioConfig(scenario="yang-lee-numeric", gamma=0.9999, t_start=p.t0, t_end=p.t0 + 100.0, dt=1e-3)
    )
    report, _ = cli.run_scenario(cfg, write_files=False)
    assert {c.name: c.value for c in report.checks}["h_numeric_vs_closed"] < 1e-10
    assert report.overall_pass


def test_su2_generic_propagation_with_lambda_passes(tmp_path):
    # near the exceptional point the finite-difference source of earlier
    # versions broke u_unitary here (1.9e-9); the exact source keeps it at roundoff
    cfg = rotated_yang_lee_config(
        0.95,
        tmp_path / "out",
        t_start=0.0,
        t_end=2.0,
        dt=2e-3,
        outputs=["propagator", "states", "energies"],
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["run", str(cfg_path)]) == 0
    assert time.perf_counter() - start < 2.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert report["overall"] == "PASS"
    unitary = next(c for c in report["checks"] if c["name"] == "u_unitary")
    assert unitary["value"] <= 1e-9
    for name in ("propagator", "states", "energies"):
        assert len((tmp_path / "out" / f"{name}.csv").read_text().splitlines()) == 1002


@pytest.mark.parametrize("lam, t_end, dt", [(0.6, 100.0, 5e-3), (0.9999, 200.0, 0.01)])
def test_su2_generic_reports_the_same_checks_whatever_it_writes(lam, t_end, dt, tmp_path, capsys):
    # outputs choose the tables written, never the checks: every su2-generic
    # run integrates its propagator, so verify and run with no, one or all 7
    # outputs report the same checks in one order with the same values, and
    # no run of 3 chunks draws a warning: the su2 source is a Hermitian part.
    # At lambda 0.9999 u_unitary failed (2.4e-9 > 1e-9) while the source
    # carried the anti-Hermitian rounding rest of h, a failure that a verify
    # without propagator outputs once hid behind an overall PASS; now both
    # configs stay within 1e-11 (2.5e-12 and 6.1e-12)
    cfg_path = tmp_path / "cfg.json"
    reports = []
    for outputs in ([], ["metric"], list(cli.OUTPUTS)):
        cfg = rotated_yang_lee_config(lam, tmp_path / "out", t_start=0.0, t_end=t_end, dt=dt, outputs=outputs)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        for verb in ("verify", "run"):
            with warnings.catch_warnings(record=True) as drawn:
                warnings.simplefilter("always")
                report, _ = cli.run_scenario(cli.load_config(cfg_path), write_files=verb == "run")
            assert drawn == []
            reports.append([astuple(c) for c in report.checks])
    assert all(checks == reports[0] for checks in reports)
    assert [name for name, *_ in reports[0]][-1] == "u_unitary"
    # the config that hid the failure: verify, no outputs
    cfg_path.write_text(json.dumps({**cfg, "outputs": []}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 0
    unitary = next(line.split() for line in capsys.readouterr().out.splitlines() if "u_unitary" in line)
    assert unitary[-1] == "PASS" and float(unitary[1]) <= 1e-11


def test_su2_generic_metric_rows_are_one_metric(tmp_path):
    # alpha, beta and det_rho of a row all come from the integrated metric, so
    # det_rho = alpha^2 - |beta|^2 to rounding (1.6e-15 of det_rho here); the
    # closed-form alpha and beta beside the integrated det missed by 3.5e-11
    cfg = rotated_yang_lee_config(0.6, tmp_path / "out", t_start=0.0, t_end=1.5, dt=0.02, outputs=["metric"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(cfg_path)]) == 0
    metric = np.loadtxt(tmp_path / "out" / "metric.csv", delimiter=",", skiprows=1)
    _t, alpha, bx, by, bz, det = metric.T
    assert len(metric) == 76
    assert np.max(np.abs(det - (alpha**2 - (bx**2 + by**2 + bz**2))) / det) < 1e-13


def test_su2_source_matches_finite_difference_formula():
    cfg = cli.validate_config(cli.ScenarioConfig(**rotated_yang_lee_config(0.6, "unused")))
    _start, _period, (h, zeta) = cli._SCENARIOS["su2-generic"].model(cfg)
    ts = np.array([0.0, 0.37, 1.9, 4.2, 7.5])
    exact = cli._su2_h_source(h, zeta)(ts)
    assert exact.shape == (5, 2, 2)
    fd = 1e-6
    for t, h_exact in zip(ts, exact):
        root = lambda s: hermitian_sqrt(zeta_metric(s, h, zeta).matrix())
        sample = DysonSample(t=t, eta=root(t), eta_dot=(root(t + fd) - root(t - fd)) / (2.0 * fd))
        assert np.linalg.norm(h_exact - hermitian_counterpart(h.matrix(), sample)) < 1e-8
        assert np.linalg.norm(h_exact - h_exact.conj().T) < 1e-13


@pytest.mark.parametrize("omega", [1.0, 0.8])
def test_su2_source_on_h1_meets_rabi_h_up_to_the_exceptional_point(omega):
    # on H1 with the canonical metric constants the su2 source is h of the
    # paper's closed-form chain, rabi_h: over two periods (20,001 times) it
    # meets it to 5.9e-16 up to gamma 0.5, then to 3.4e-14 at 0.99, 2.9e-13
    # at 0.999 and 2.9e-12 at 0.9999, within the tolerance of 1e-11
    for gamma in (1e-8, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.5, 0.99, 0.995, 0.997, 0.999, 0.9999):
        p = cli.YangLeeParams(gamma=gamma, omega=omega)
        ts = p.t0 + np.linspace(0.0, 2.0 * p.period, 20_001)
        source = cli._su2_h_source(cli.h1_su2(p), cli.rho_closed_constants(p))(ts)
        assert np.max(frobenius_norm(source - cli.rabi_h(ts, p))) <= 1e-11, gamma


def rotated_hamiltonian():
    """H and the zeta constants of rotated_yang_lee_config at lambda 0.6."""
    cfg = cli.validate_config(cli.ScenarioConfig(**rotated_yang_lee_config(0.6, "unused")))
    _start, _period, (h, zeta) = cli._SCENARIOS["su2-generic"].model(cfg)
    return h, zeta


def test_flow_eta_dot_is_the_limit_of_the_finite_difference_one():
    # on the rotated su2-generic flow the fourth-order difference of the
    # sampled eta closes on the flow's eta_dot about 16x per halved step, and
    # at dt 1e-3 the two agree to the difference's roundoff (2.4e-12 here,
    # 8.8e-13 away from the one-sided edge stencils)
    h, zeta = rotated_hamiltonian()
    rho0 = zeta_metric(0.0, h, zeta).matrix()
    gaps = []
    for dt in (0.04, 0.02, 0.01, 1e-3):
        flow = integrate_metric(h, rho0, IntegrationGrid(0.0, 4.0, dt))
        gap = np.linalg.norm(dyson_from_metric(flow).eta_dot - dyson_from_metric(flow.series).eta_dot, axis=(1, 2))
        gaps.append(np.max(gap))
    assert 12.0 < gaps[0] / gaps[1] < 20.0 and 12.0 < gaps[1] / gaps[2] < 20.0
    assert gaps[3] < 1e-11


def test_flow_eta_dot_is_the_su2_source_bit_for_bit():
    # _su2_h_source is the Hermitian part of the Dyson chain's h on the
    # closed-form metric's real Pauli form, bit for bit, and within rounding
    # of the h dyson_from_metric gives on a MetricFlow of its composed
    # matrices, which decomposes them again; that distance grows with cond(rho)
    # towards the exceptional point (3.7e-14 at lambda 0.99)
    h, zeta = rotated_hamiltonian()
    ts = 0.37 + 1e-2 * np.arange(300)
    metric = zeta_metric(ts, h, zeta)
    via_chain = pauli_compose(*dyson_relation_forms(h.matrix(), *dyson_forms(h, *require_pd_form(metric.form())))[0][0])
    exact = cli._su2_h_source(h, zeta)(ts)
    bits = lambda m: np.ascontiguousarray(m).view(np.uint64)
    assert np.array_equal(bits(via_chain), bits(exact))
    series = TimeSeries(t0=ts[0], dt=1e-2, samples=metric.matrix())
    via_dyson = hermitian_counterpart(h.matrix(), dyson_from_metric(MetricFlow(series, h)))
    via_dyson = 0.5 * (via_dyson + dagger(via_dyson))
    assert np.max(frobenius_norm(via_dyson - exact) / frobenius_norm(exact)) <= 1e-14


def test_sweep_rows_are_the_numeric_report_values(tmp_path):
    # each row is read from the report verify prints for the same config and
    # window, t_end included; su2-generic sweeps used to drop t_end
    yang_lee = {"scenario": "yang-lee-numeric", "t_start": 0.0, "t_end": 1.0, "dt": 2e-3}
    su2 = rotated_yang_lee_config(0.6, tmp_path / "out", t_start=0.0, t_end=1.5, dt=5e-3)
    for raw, param, values in ((yang_lee, "gamma", [0.3, 0.6]), (su2, "dt", [5e-3, 2.5e-3])):
        cfg = cli.validate_config(cli.ScenarioConfig(**raw))
        header, rows, written = cli.sweep(cfg, param, values, write_files=False)
        assert written == [] and [row[0] for row in rows] == sorted(values)
        for value, margin, qh, deviation in rows:
            report, _ = cli.run_scenario(
                cli.validate_config(cli.ScenarioConfig(**{**raw, param: value})), write_files=False
            )
            checks = {c.name: c.value for c in report.checks}
            assert margin == checks["positivity_maintained"]
            assert qh == checks["htilde_quasi_hermitian"]
            assert deviation == max(
                checks[name]
                for name in ("metric_numeric_vs_closed", "u_numeric_vs_closed")
                if name in checks
            )


def test_a_nan_deviation_reaches_the_sweep_row(monkeypatch):
    # the deviation column folds the metric and propagator deviations as a
    # max_le check folds: a NaN behind a finite value stays
    real = cli.u_closed

    def poisoned(t, p):
        u = real(t, p)
        if np.ndim(t):
            u = u.copy()
            u[3, 0, 0] = math.nan
        return u

    monkeypatch.setattr(cli, "u_closed", poisoned)
    cfg = cli.validate_config(
        cli.ScenarioConfig(scenario="yang-lee-numeric", gamma=0.6, t_start=0.0, t_end=1.0, dt=1e-2)
    )
    report, _ = cli.run_scenario(cfg, write_files=False)
    checks = {c.name: c.value for c in report.checks}
    assert math.isnan(checks["u_numeric_vs_closed"]) and math.isfinite(checks["metric_numeric_vs_closed"])
    _, [row], _ = cli.sweep(cfg, "gamma", [0.6], write_files=False)
    assert math.isfinite(row[1]) and math.isnan(row[3])


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_sweep_builds_only_the_checks_its_rows_read(cpus, tmp_path, monkeypatch):
    # a row reads 4 checks; the flow residual, zeta_metric_dot's only caller,
    # and the eta oracle, yang-lee-numeric's only caller of eta_form, are not
    # among them, so a sweep never forms them and keeps its rows without
    # them, in forked workers too, while verify of the same config needs them;
    # no numeric scenario calls eta_closed, which forms eta_dot too
    use_cpus(monkeypatch, cpus)
    yang_lee = {"scenario": "yang-lee-numeric", "t_start": 0.0, "t_end": 1.0, "dt": 2e-3}
    su2 = rotated_yang_lee_config(0.6, tmp_path / "out", t_start=0.0, t_end=1.5, dt=5e-3)
    sweeps = [
        (cli.validate_config(cli.ScenarioConfig(**raw)), param, values)
        for raw, param, values in ((yang_lee, "gamma", [0.3, 0.6]), (su2, "dt", [5e-3, 2.5e-3]))
    ]
    expected = [cli.sweep(cfg, param, values, write_files=False)[1] for cfg, param, values in sweeps]

    def refuse(*args):
        raise ValueError("formed for a check that is not read")

    monkeypatch.setattr(cli, "zeta_metric_dot", refuse)
    monkeypatch.setattr(cli, "eta_closed", refuse)
    monkeypatch.setattr(cli, "eta_form", refuse)
    for (cfg, param, values), rows in zip(sweeps, expected):
        assert cli.sweep(cfg, param, values, write_files=False)[1] == rows
        with pytest.raises(ValueError, match="not read"):
            cli.run_scenario(cfg, write_files=False)


def test_su2_generic_refuses_gamma_and_omega_flags(tmp_path, capsys):
    # su2-generic reads neither value, so no verb takes the flags that set
    # them, as its sweep does not sweep them; the config-file keys, left at
    # their defaults by most configs, stay accepted
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg = rotated_yang_lee_config(0.6, out, t_start=0.0, t_end=0.5, dt=1e-2, gamma=0.3, omega=0.7)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for flag in ("gamma", "omega"):
        for argv in (["run"], ["verify"], ["sweep", "--param", "dt", "--values", "0.01"]):
            assert cli.main([argv[0], str(cfg_path), *argv[1:], f"--{flag}", "0.3"]) == 2, (flag, argv)
            assert capsys.readouterr().err == f"config error: su2-generic takes no --{flag}; it does not read {flag}\n"
            assert not out.exists(), argv
    assert cli.main(["verify", str(cfg_path), "--dt", "0.02"]) == 0


def test_su2_sweep_refuses_what_run_refuses(tmp_path):
    cfg = rotated_yang_lee_config(0.6, tmp_path / "out", t_start=0.0, t_end=0.5, dt=1e-2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    # su2-generic reads neither gamma nor omega, so sweeping them is refused
    for param in ("gamma", "omega"):
        assert cli.main(["sweep", str(cfg_path), "--param", param, "--values", "0.3,0.5"]) == 2
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01,0.005"]) == 0
    cfg_path.write_text(json.dumps({**cfg, "zeta_constants": [0.0, 0.0, 0.0, 0.0]}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 2
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01"]) == 2


def test_numeric_scenario_passes_at_the_edges_of_gamma(tmp_path):
    # gamma near 0 and near the exceptional point at 1, from the anchor time to t = 6;
    # from 0.9998 on, a finite-difference eta_dot failed h_hermitian (6.1e-6 at 0.9998)
    for gamma in (0.01, 0.99, 0.999, 0.9995, 0.9998, 0.9999):
        cfg_path = tmp_path / f"cfg_{gamma}.json"
        t0 = -math.pi / (2.0 * math.sqrt(1.0 - gamma**2))
        write_config(
            cfg_path, scenario="yang-lee-numeric", gamma=gamma, t_start=t0, t_end=6.0, outputs=[]
        )
        assert cli.main(["verify", str(cfg_path)]) == 0  # overall PASS


@pytest.mark.parametrize("scenario", ["yang-lee-closed", "yang-lee-numeric"])
def test_gamma_where_phi_rounds_to_one_is_a_config_error(scenario, tmp_path, capsys):
    # at gamma <= 2^-27, phi = sqrt(1 - gamma^2) rounds to 1, and the closed forms divide by 1 - phi
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scenario=scenario, gamma=1e-9, t_start=0.0, t_end=1.0, dt=1e-2, outputs=[])
    assert cli.main(["verify", str(cfg_path)]) == 2
    assert "gamma must exceed 2^-27" in capsys.readouterr().err
    assert cli.main(["sweep", str(cfg_path), "--param", "gamma", "--values", "0.5,1e-9"]) == 2
    assert "gamma must exceed 2^-27" in capsys.readouterr().err


def test_closed_scenario_passes_near_the_exceptional_point(tmp_path):
    # over the default window; u_tdse_residual read 1.4e-8 against 1e-8 here
    # while du/dt came from central differences of u_closed, not from theta_dot
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, gamma=0.995, omega=0.8, t_start=None, t_end=None, outputs=[])
    assert cli.main(["verify", str(cfg_path)]) == 0


def test_closed_scenario_just_above_the_gamma_bound_prints_a_report(tmp_path, capsys):
    # whatever its checks say; the numeric scenario still ends in an error here,
    # its metric entries (about 1/gamma) too large for the absolute Hermiticity check
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, gamma=1e-8, t_start=0.0, t_end=1.0, dt=1e-2, outputs=[])
    cli.main(["verify", str(cfg_path)])
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("scenario: yang-lee-closed\n") and "overall:" in out


def test_numeric_scenario_at_the_exceptional_point_prints_a_report(tmp_path, capsys):
    # gamma = 0.9999 over the default window (two periods, 888,599 steps):
    # a metric that drifts from Hermitian by 1e-10 would end the run with an
    # error instead of a report
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "yang-lee-numeric", "gamma": 0.9999}), encoding="utf-8")
    assert cli.main(["verify", str(cfg_path)]) == 0
    out, err = capsys.readouterr()
    assert "error:" not in err
    assert out.startswith("scenario: yang-lee-numeric\n") and "overall:" in out
    hermitian = next(line.split() for line in out.splitlines() if line.split()[:1] == ["metric_hermitian"])
    assert float(hermitian[1]) <= 1e-14


@pytest.mark.parametrize(
    "fields",
    [
        {"scenario": "yang-lee-numeric", "omega": 1e150},
        {"scenario": "yang-lee-numeric", "omega": 1e300},
        {"scenario": "su2-generic", "kappa0": 1e300},
    ],
)
def test_an_overflowing_step_ends_the_run_with_an_error_not_a_traceback(fields, tmp_path, capsys):
    # the RK4 steps overflow, and their NaN local error estimate is too large:
    # it once passed the check, and dyson_from_metric raised ValueError on the
    # non-finite metric it gave
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**fields, "t_start": 0.0, "t_end": 1.0}), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["verify", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: local error estimate nan exceeds 1.000e-06 at t = 0; reduce dt\n"


# sha256 of every CSV and of report.json written by the two configurations
# below (numpy 2.4.6), recorded before the 2x2 rules moved into su2 and
# re-recorded when the 2x2 products went entry by entry (su2.mul); the
# su2-generic propagator, states, energies and report again when the RK4
# scan composed its 2x2 steps with su2.mul (the numeric ones kept their bytes);
# every file derived from the metric (all but propagator and states) again
# when the metric was integrated as the 2x2 congruence A rho0 A^dag; the
# numeric invariants and report again when u_closed stopped taking tan and
# arctan; every file of both again when the RK4 scan became a pairwise scan
# composed through su2.mul alone and the su2-generic |k|^2 and |l|^2 were
# summed entry by entry, after which no BLAS call feeds them (they hold the
# same bytes under OPENBLAS_CORETYPE=Haswell); the files derived from
# eta^-1 (hermitian_h, energies, invariants, and the su2-generic propagator,
# states and report) again when invert_dyson_map took its determinant from
# su2.det, and the su2-generic metric when its alpha and beta columns became
# the Pauli split of the integrated metric whose det_rho they sit beside;
# hermitian_h, energies, invariants and report of both again when eta_dot
# came from the metric flow instead of finite differences (by at most
# 1.0e-10, in the numeric invariants); every numeric file but propagator and
# states again when yang-lee-numeric became su2-generic on H1 plus its
# oracles, its metric starting from zeta_metric instead of rho_closed, max
# |new - old| metric 1.8e-15, dyson 4.4e-16, hermitian_h 5.6e-16, energies
# 1.0e-15, the invariant columns kept 3.6e-15 (two were added,
# eta_sq_residual and h_hermiticity, and the order changed) and the report
# values kept 6.7e-16 (two checks were added, metric_flow_residual_fd and
# eta_squared_matches_rho, and the order changed); the su2-generic report
# in metric_flow_residual_fd alone (4.1e-13 -> 3.7e-16) when that check took
# the analytic derivative zeta_metric_dot instead of five-point stencils; and
# both reports when that check became the Frobenius norm of metric_rhs on the
# closed form minus zeta_metric_dot's matrix (numeric 3.9e-16 -> 7.1e-16,
# su2-generic 3.7e-16 -> 7.6e-16) and the numeric nonunitary_flat_metric,
# which keeps its greatest value, took the mode max_gt for min_gt; the
# files that read h again when the tables and checks took its Hermitian
# part (h + h^dag) / 2 and the su2-generic propagator its Hermitian
# source, max |new - old| numeric hermitian_h 2.8e-16, energies 2.2e-16,
# invariants 3.1e-17 and report 4.2e-20 (h_numeric_vs_closed alone),
# su2-generic hermitian_h 3.2e-16, energies 2.2e-16, propagator and states
# 1.1e-16 and report 2.0e-18 (u_unitary alone); h_hermitian, which reads
# the raw h, kept its value; and every file derived from the chain again
# when eta, eta_dot, h, Htilde, det rho and the chain's residuals were formed
# in real Pauli coefficients (su2.pauli_sqrt, dyson.dyson_relation_forms)
# and the su2-generic source composed the real form of h, max
# |new - old| numeric metric 2.2e-15 (det_rho), dyson 4.4e-16, hermitian_h
# 7.8e-16, energies 1.1e-15, invariants 2.2e-15 and report 1.3e-15, the
# numeric propagator and states keeping their bytes; su2-generic metric
# 1.8e-15, dyson 4.4e-16, hermitian_h 6.7e-16, propagator and states
# 1.7e-16, energies 7.8e-16, invariants 2.0e-15 and report 1.3e-15; and the
# su2-generic propagator, states and energies again (max |new - old|
# 1.1e-16) and its report in u_unitary alone (2.4199e-14 -> 2.4185e-14)
# when the su2 source rooted zeta_metric's real Pauli form as it is, no
# longer composed and decomposed again
GOLDEN_NUMERIC = {
    "metric": "59221ac20599370a1040612d8a5a667372a77ec1b042ac7b49939d587842b968",
    "dyson": "2bc69219c5d331108a597b83ad1b1eb98d9b9e3cb2adda34595a44e4cfe6f68a",
    "hermitian_h": "eaadc2461be55d896a2e6152ee6d7c6ebae5c5bf54b3ab7de84bf134c4e8bf7b",
    "states": "b3b3a96aba5630ec2b347f41fa825d5db444268933ec8dc8d60377bfcc52b3d7",
    "propagator": "5e975cc78d043962f564f4c4cbe8913120ccd38722a8a3ab12710cb98c6e9b56",
    "energies": "009571ea1068a2ec43ee49f59774eb63c91032ef2816d330b2270d305ba45be1",
    "invariants": "d9662ec59626cb759dc2d2d2ed048fa8d5b6c892e324d965e09416ff570f0149",
    "report": "168ff48a2fe9db1a4ae210c749f05713564c3ec235c9659228958c1d4c525976",
}
GOLDEN_SU2_GENERIC = {
    "metric": "27109a90415863ad0961b397affd7a57390edcd354a94ad2bf8b3430fa226604",
    "dyson": "e8263e211901d19263b82d4fa0764b55617476cba38545e2302f0a0c190f5869",
    "hermitian_h": "60f32f12bee299b930b51f16331a9de13fd89ab4570b3b696f0bf8b25581eca1",
    "states": "d6f8ed1f39ab32984d34908ee0878ff68d5e0725439d1817f96325d59e054a59",
    "propagator": "2a7a77344af3cba212c59a0bfaedf1b94fc08189ec0580dc8b709b88eff7870d",
    "energies": "6499a4dfd6612dde774241d3e53b22161afea53db268a132ade6976e0216b2fd",
    "invariants": "6b64193d54eb721d37322ed7766cbc7bbd63d7b07cd1be4431662a360aa7792f",
    "report": "43c631c5fbebc18d7b40a84bbbe307102e1bbb11263d33fd8895925645f3b096",
}


def assert_run_matches_golden(cfg, golden, tmp_path, monkeypatch, ext="csv"):
    # a relative out_path keeps report.json, which echoes the config, independent of tmp_path
    monkeypatch.chdir(tmp_path)
    outputs = [name for name in golden if name != "report"]
    Path("cfg.json").write_text(
        json.dumps({**cfg, "outputs": outputs, "out_path": "out", "format": ext})
    )
    assert cli.main(["run", "cfg.json"]) == 0
    for name, digest in golden.items():
        data = Path("out", f"{name}.json" if name == "report" else f"{name}.{ext}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_numeric_scenario_matches_golden_hashes(tmp_path, monkeypatch):
    cfg = {
        "scenario": "yang-lee-numeric", "gamma": 0.6, "omega": 0.9,
        "t_start": -0.5, "t_end": 1.5, "dt": 5e-3,
    }
    assert_run_matches_golden(cfg, GOLDEN_NUMERIC, tmp_path, monkeypatch)


def test_su2_generic_scenario_matches_golden_hashes(tmp_path, monkeypatch):
    cfg = rotated_yang_lee_config(0.6, "out", t_start=0.0, t_end=1.5, dt=5e-3)
    assert_run_matches_golden(cfg, GOLDEN_SU2_GENERIC, tmp_path, monkeypatch)


@pytest.mark.parametrize("chunk_steps", [10**9, 150])
def test_yang_lee_numeric_is_su2_generic_on_h1(chunk_steps, tmp_path, monkeypatch):
    # yang-lee-numeric runs the su2-generic pipeline on H1 with the canonical
    # metric constants, and adds its Yang-Lee oracles: over one window, in one
    # chunk or in three, the metric, Dyson map and h of both are the same bytes,
    # and each check su2-generic reports has the same value in both reports,
    # but u_unitary, whose propagators come from different sources (rabi_h and
    # the exact su2 source) and so differ by rounding
    monkeypatch.setattr(cli, "CHUNK_STEPS", chunk_steps)
    p = cli.YangLeeParams(gamma=0.6, omega=0.9)
    window = {"t_start": -0.5, "t_end": 1.5, "dt": 5e-3, "outputs": ["metric", "dyson", "hermitian_h"]}
    h1 = {
        "kappa0": -p.omega, "kappa_vec": [0.0, 0.0, -1.0], "lambda_vec": [-p.gamma, 0.0, 0.0],
        "zeta_constants": list(astuple(cli.rho_closed_constants(p))),
    }
    runs = {
        "yang-lee-numeric": {"gamma": p.gamma, "omega": p.omega},
        "su2-generic": h1,
    }
    reports = {}
    for scenario, fields in runs.items():
        cfg_path = tmp_path / f"{scenario}.json"
        cfg_path.write_text(
            json.dumps({"scenario": scenario, **fields, **window, "out_path": str(tmp_path / scenario)}),
            encoding="utf-8",
        )
        assert cli.main(["run", str(cfg_path)]) == 0
        report = json.loads((tmp_path / scenario / "report.json").read_text())["report"]
        reports[scenario] = {c["name"]: c["value"] for c in report["checks"]}
    for name in window["outputs"]:
        yang_lee, su2 = ((tmp_path / scenario / f"{name}.csv").read_bytes() for scenario in runs)
        assert yang_lee == su2, name
    su2 = reports["su2-generic"]
    assert "metric_flow_residual_fd" in su2 and "eta_squared_matches_rho" in su2 and "u_unitary" in su2
    shared = [name for name in su2 if name != "u_unitary"]
    assert {name: reports["yang-lee-numeric"][name] for name in shared} == {name: su2[name] for name in shared}


# sha256 of all 7 series and report.json written as JSON by the su2-generic
# configuration above, and of a JSON dt sweep of it, recorded while the JSON
# series still went through json.dump and re-recorded with su2.mul; the
# propagator, states, energies and report again with the su2.mul RK4 scan;
# the metric-derived files and the sweep again with the metric congruence;
# every file and the sweep again with the pairwise scan; every file but dyson
# (the sweep kept its bytes) again with su2.det in invert_dyson_map and the
# metric table taken from the integrated metric; hermitian_h, energies,
# invariants, report and the sweep again with eta_dot from the metric flow;
# the report again, in metric_flow_residual_fd alone (4.1e-13 -> 3.7e-16),
# with the analytic zeta_metric_dot in that check, and again, in that check
# alone (3.7e-16 -> 7.6e-16), when it compared metric_rhs on the closed form
# with zeta_metric_dot as matrices; hermitian_h, energies, propagator,
# states and report again (the sweep kept its bytes) with the Hermitian part
# of h in the tables and the su2 source, by the su2-generic CSV files' max
# |new - old| above; every file and the sweep (8.9e-16) again with the chain
# in real Pauli coefficients, by the su2-generic CSV files' max |new - old|
# above; propagator, states, energies and report again (the sweep kept its
# bytes) when the su2 source rooted the metric's form, by the same
GOLDEN_SU2_GENERIC_JSON = {
    "metric": "6dfd6a30a80d449eac732aedf45695ba5170668675ab9de0555d0e9da8de17da",
    "dyson": "f3b3c2b43772e100922e2a3422cc6c96f2d0709af59ef1aa3fa774f56669411c",
    "hermitian_h": "caa6b8c3d95f3e7d9efd2604751e1da42522cba3df2ea2b8f4909fa6516a31a6",
    "states": "2318dbc4b1f0f05fde2b64f7930f6257045523a4a7df98d36ae7108ddbcd2667",
    "propagator": "38fff2b9fd7e4fc80d02ebc638c07638952318d1d09054fd18f989c135d695fe",
    "energies": "0febae774f39bad25d5f7ab30e1c4d994e555237f71f65dfd9c317f302d53509",
    "invariants": "351e50f30d78c8e061ab3f956d892ca3564bb072d673da18b1013658e04563e9",
    "report": "64201f8098538dd7f8b215fffceff8bf07a7ca8483a0832fb3818e73bfa17e03",
}
GOLDEN_SU2_SWEEP_DT_JSON = "78f9a4678c70b4e80e447ec3725cf2403cc9b66553775f259bce2ebb1a0f1486"


def test_su2_generic_json_matches_golden_hashes(tmp_path, monkeypatch):
    cfg = rotated_yang_lee_config(0.6, "out", t_start=0.0, t_end=1.5, dt=5e-3)
    assert_run_matches_golden(cfg, GOLDEN_SU2_GENERIC_JSON, tmp_path, monkeypatch, ext="json")
    assert cli.main(["sweep", "cfg.json", "--param", "dt", "--values", "0.01,0.005"]) == 0
    data = Path("out", "sweep_dt.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SU2_SWEEP_DT_JSON


def test_json_series_writer_matches_json_dump(tmp_path):
    # every JSON table is exactly what json.dump(indent=2, sort_keys=True) writes
    cfg = cli.ScenarioConfig(scenario="yang-lee-closed", format="json")
    edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2.0, 0.1, -1e-300, 1e300]
    # whole values in fixed notation, E = 15 and 16, a power of two and the largest finite value
    edge += [100.0, -7.0, 1e15, 9999999999999998.0, 1.2345678901234568e16, 2.0**-20, 1.7976931348623157e308]
    rng = np.random.default_rng(7)
    block = _format._BLOCK_ROWS
    # E_1 sorts before t and u_00_re after it, so the keys are reordered
    series = ["t", "u_00_re", "E_1", "u_00_im", "p%s"]
    sweep = ["dt", "min_positivity_margin", "max_closed_vs_numeric_deviation"]

    def table(n, k):
        rows = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-20, 20, (n, k))
        rows.flat[: len(edge)] = edge[: rows.size]  # non-finite values in the first block only
        return rows

    cases = [
        ("one_row", series, table(1, 5)),
        ("one_block", series, table(block, 5)),
        ("block_plus_one", series, table(block + 1, 5)),
        ("finite_then_nan", series, np.vstack([rng.standard_normal((block, 5)), [[math.nan] * 5]])),
        ("finite", series, [[-0.0, 5e-324, 1e16, 2.0, -7.0], [0.0, -5e-324, 1e22, 1e-7, 1e300]]),
        ("empty", series, np.empty((0, 5))),
        ("repeated_name", ["t", "x", "x"], table(2, 3)),
        ("sweep", sweep, table(6, 3)),
        ("sweep_empty", sweep, []),
    ]
    for name, header, rows in cases:
        path = cli._write_series(tmp_path, name, header, rows, cfg)
        key = "samples" if header[0] == "t" else "rows"
        payload = {
            "metadata": cli._metadata(cfg),
            "columns": header,
            key: [dict(zip(header, row)) for row in np.asarray(rows, dtype=float).tolist()],
        }
        assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n", name


@pytest.mark.parametrize("scenario", ["yang-lee-numeric", "su2-generic"])
def test_numeric_windows_of_one_to_three_steps_run(scenario, tmp_path, capsys):
    # eta_dot comes from the metric flow at each sample, so no numeric window
    # is too short for it; a five-point difference needed four steps
    if scenario == "su2-generic":
        base, dt = rotated_yang_lee_config(0.6, "x"), 0.01
    else:
        base, dt = {"scenario": scenario}, 0.02
    cfg_path = tmp_path / "cfg.json"
    for steps in (1, 2, 3):
        for verb in ("run", "verify"):
            out = tmp_path / f"{verb}{steps}"
            raw = {**base, "t_start": 0.0, "t_end": steps * dt, "dt": dt, "out_path": str(out)}
            cfg_path.write_text(json.dumps({**raw, "outputs": list(cli.OUTPUTS)}), encoding="utf-8")
            assert cli.main([verb, str(cfg_path)]) == 0, (verb, steps)
            assert capsys.readouterr().err == ""
        assert len((tmp_path / f"run{steps}" / "metric.csv").read_text().splitlines()) == 1 + steps + 1
    # a sweep runs a value whose window holds three steps
    cfg_path.write_text(json.dumps({**base, "t_start": 0.0, "t_end": 0.3, "out_path": str(tmp_path)}))
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01,0.1"]) == 0


def test_window_of_at_most_half_a_step_is_a_config_error(tmp_path, capsys):
    # such a window is refused, not widened to one step, by every verb
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_start=0.0, t_end=0.001, dt=0.5, outputs=["metric"])
    message = "the window spans at most half a dt step (span 0.001, dt 0.5)"
    for argv in (["run", str(cfg_path)], ["verify", str(cfg_path)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert cli.main(["sweep", str(cfg_path), "--param", "gamma", "--values", "0.3,0.5"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a little over half a step rounds to one step
    write_config(cfg_path, t_start=0.0, t_end=0.26, dt=0.5, outputs=["metric"])
    assert cli.main(["run", str(cfg_path)]) == 0
    assert len((tmp_path / "out" / "metric.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.parametrize("dt", [1e-300, 1e-20])
@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_a_dt_at_or_below_the_float_spacing_of_the_window_is_a_config_error(scenario, dt, tmp_path, capsys):
    # there t_start + k dt stop being distinct: the step count overflowed int64
    # (IndexError) or a chunk spanned 0.0 (ValueError); every verb refuses it
    cfg_path = tmp_path / "cfg.json"
    base = rotated_yang_lee_config(0.6, "x") if scenario == "su2-generic" else {"scenario": scenario}
    cfg_path.write_text(json.dumps({**base, "out_path": str(tmp_path / "out"), "dt": dt}), encoding="utf-8")
    cfg = cli.load_config(cfg_path)

    def refusal(periods):  # the message for the window of a run (two periods) or of a sweep row (one)
        window = cli._resolve_window(replace(cfg, dt=0.01), periods)
        spacing = max(math.ulp(window.t_start), math.ulp(window.t_end))
        return f"config error: dt {dt:.6g} is at or below the spacing {spacing:.6g} of floats at the window's ends"

    for argv in (["verify", str(cfg_path)], ["run", str(cfg_path)]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(refusal(2)), err
    assert not (tmp_path / "out").exists()
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", f"{dt!r},0.01"]) == 2
    assert capsys.readouterr().err.startswith(refusal(1))
    assert not (tmp_path / "out").exists()
    # the spacing itself is refused, twice it is not, over a window of 500
    # such steps that ends where the default window does, so at its spacing
    window = cli._resolve_window(replace(cfg, dt=0.01))
    spacing = math.ulp(window.t_end)
    ends = {"t_start": window.t_end - 1000 * spacing, "t_end": window.t_end}
    with pytest.raises(cli.ConfigInvalid, match="at or below the spacing"):
        cli._resolve_window(replace(cfg, dt=spacing, **ends))
    assert cli._resolve_window(replace(cfg, dt=2.0 * spacing, **ends)).dt == 2.0 * spacing


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_a_window_of_more_than_max_steps_is_a_config_error(scenario, tmp_path, capsys):
    # dt 1e-12 over a window of 1.5 is 1.5e12 steps, which no verb could
    # finish; each is refused before any chunk runs
    cfg_path = tmp_path / "cfg.json"
    base = rotated_yang_lee_config(0.6, "x") if scenario == "su2-generic" else {"scenario": scenario}
    window = {"t_start": 0.0, "t_end": 1.5, "dt": 1e-12}
    cfg_path.write_text(json.dumps({**base, **window, "out_path": str(tmp_path / "out")}), encoding="utf-8")
    refusal = "config error: the window takes 1,500,000,000,000 steps of dt 1e-12, more than the bound of 100,000,000\n"
    for argv in (["verify", str(cfg_path)], ["run", str(cfg_path)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == refusal
    assert not (tmp_path / "out").exists()
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "1e-12,0.01"]) == 2
    assert capsys.readouterr().err == refusal
    assert not (tmp_path / "out").exists()
    # MAX_STEPS steps are taken, one more is refused
    cfg = replace(cli.load_config(cfg_path), t_end=1.0)
    assert cli._resolve_window(replace(cfg, dt=1e-8)).n_steps == cli.MAX_STEPS == 10**8
    with pytest.raises(cli.ConfigInvalid, match="100,000,001 steps"):
        cli._resolve_window(replace(cfg, dt=1.0 / (cli.MAX_STEPS + 1)))


FAR_WINDOW = {"t_start": 1000.0, "t_end": 1000.24003}  # 8,001 steps of 3e-5 and 24,003 of 1e-5


@pytest.mark.parametrize(
    "scenario, window, status",
    [
        ("yang-lee-closed", {"t_start": 1e6, "t_end": 1000000.000001, "dt": 2e-10}, 2),
        ("yang-lee-numeric", {**FAR_WINDOW, "dt": 3e-5}, 0),
        ("yang-lee-numeric", {**FAR_WINDOW, "dt": 1e-5}, 0),
        ("su2-generic", {**FAR_WINDOW, "dt": 3e-5}, 0),
        ("su2-generic", {**FAR_WINDOW, "dt": 1e-5}, 0),
        ("yang-lee-numeric", {"t_start": 1e6, "t_end": 1000000.01, "dt": 1e-7}, 1),
    ],
)
def test_a_window_far_from_zero_is_refused_or_run_whole(scenario, window, status, tmp_path, capsys):
    # a grid's span must lie within 1e-9 max(dt, span) of a whole number of
    # steps. Far from t = 0, t_start + n dt rounds farther off than that for
    # a short window: refused, not a ValueError traceback. A longer window
    # passes, but a chunk of it, a step or a few thousand, failed the check
    # on its own: a chunk cut from the window is not checked again
    cfg_path = tmp_path / "cfg.json"
    base = rotated_yang_lee_config(0.6, "x") if scenario == "su2-generic" else {"scenario": scenario}
    raw = {**base, **window, "outputs": ["metric"], "out_path": str(tmp_path / "out")}
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    for verb in ("verify", "run"):
        assert cli.main([verb, str(cfg_path)]) == status, verb
        out, err = capsys.readouterr()
        if status == 2:
            assert err.startswith("config error: near t = 1e+06, (t_end - t_start)/dt = 5000.03807247 is not"), err
            assert err.endswith(" (bound 1e-9 max(dt, span))\n"), err
            assert not (tmp_path / "out").exists()
        else:
            assert out.splitlines()[-1 if verb == "verify" else -3] == f"overall: {'PASS' if status == 0 else 'FAIL'}"
    if status != 2:
        steps = cli._resolve_window(cli.load_config(cfg_path)).n_steps
        assert len((tmp_path / "out" / "metric.csv").read_text().splitlines()) == 1 + steps + 1


def test_unusable_out_path_is_a_config_error_before_any_run(tmp_path, monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("a pipeline ran before out_path was checked")

    monkeypatch.setitem(cli._SCENARIOS, "yang-lee-closed", cli._SCENARIOS["yang-lee-closed"]._replace(pipeline=refuse))
    monkeypatch.setattr(cli, "_sweep_row", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    for out_path in (blocker, blocker / "sub"):
        write_config(cfg_path, out_path=str(out_path))
        for argv in (["run", str(cfg_path)], ["sweep", str(cfg_path), "--param", "gamma", "--values", "0.3,0.5"]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"config error: out_path {str(out_path)!r}"), err
            assert "Traceback" not in err


# --- series files and sweep values over the usable CPUs -----------------


def use_cpus(monkeypatch, n):
    """Make os.sched_getaffinity report n CPUs; returns the list of forks made from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 3])
def test_goldens_hold_with_one_and_three_cpus(cpus, tmp_path, monkeypatch):
    forks = use_cpus(monkeypatch, cpus)
    dirs = [tmp_path / name for name in ("closed", "numeric", "su2", "su2_json")]
    for d in dirs:
        d.mkdir()
    test_closed_scenario_csv_matches_golden_hashes(dirs[0], monkeypatch)
    test_numeric_scenario_matches_golden_hashes(dirs[1], monkeypatch)
    test_su2_generic_scenario_matches_golden_hashes(dirs[2], monkeypatch)
    test_su2_generic_json_matches_golden_hashes(dirs[3], monkeypatch)  # and a JSON sweep of 2 dt values
    # the closed run's 101 rows are one block, written by this process; two
    # workers for each other run of 7 series (301 or 401 rows), one for the
    # sweep of 2 values, whose table is written by this process
    assert len(forks) == {1: 0, 3: 2 * 3 + 1}[cpus]


@pytest.mark.parametrize("cpus", [1, 3])
def test_written_keeps_the_order_of_outputs(cpus, tmp_path, monkeypatch):
    use_cpus(monkeypatch, cpus)
    outputs = ("invariants", "energies", "metric", "propagator", "dyson", "states", "hermitian_h", "metric")
    for fmt in cli.FORMATS:
        cfg = cli.validate_config(
            cli.ScenarioConfig(
                scenario="yang-lee-closed", t_start=T0, t_end=T0 + 0.5, dt=1e-2,
                outputs=outputs, format=fmt, out_path=str(tmp_path / fmt),
            )
        )
        _, written = cli.run_scenario(cfg)
        # metric is listed twice, and written, so printed, once
        assert written == [tmp_path / fmt / f"{name}.{fmt}" for name in outputs[:-1]] + [
            tmp_path / fmt / "report.json"
        ]


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_raises_the_error_of_the_first_failing_value(cpus, tmp_path, monkeypatch):
    forks = use_cpus(monkeypatch, cpus)

    def row(cfg, grid):
        if cfg.dt == 0.02:
            raise NotPositiveDefinite("rho lost positivity", t=0.25, index=7)
        if cfg.dt == 0.04:
            raise StepTooLarge("local error estimate too large at t = 0.5")
        return (1.0, 0.0, 0.0)

    monkeypatch.setattr(cli, "_sweep_row", row)
    cfg = cli.validate_config(cli.ScenarioConfig(scenario="yang-lee-numeric", out_path=str(tmp_path)))
    # sorted, 0.01 and 0.04 fall to this process and 0.02 to the first worker:
    # the worker's error comes first in value order, this process's error is dropped
    with pytest.raises(NotPositiveDefinite) as info:
        cli.sweep(cfg, "dt", [0.04, 0.03, 0.02, 0.01])
    assert (str(info.value), info.value.t, info.value.index) == ("rho lost positivity", 0.25, 7)
    assert len(forks) == {1: 0, 3: 2}[cpus]
    with pytest.raises(StepTooLarge) as info:
        cli.sweep(cfg, "dt", [0.04, 0.03])
    assert str(info.value) == "local error estimate too large at t = 0.5"


@pytest.mark.parametrize("death", ["exit 3", "SIGKILL"])
def test_a_worker_that_dies_raises_in_the_parent(death, monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            if death == "exit 3":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    status = {"exit 3": 3, "SIGKILL": -signal.SIGKILL}[death]
    with pytest.raises(RuntimeError, match=f"exited with status {status}$"):
        _fork_map(fn, [1, 2, 3])


@pytest.mark.parametrize("cpus, has_fork", [(1, True), (3, False)])
def test_no_process_is_forked_with_one_cpu_or_without_fork(cpus, has_fork, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if has_fork:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    else:
        monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert _fork_map(lambda x: (x, os.getpid()), [3, 1, 2]) == [(3, parent), (1, parent), (2, parent)]
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, t_end=T0 + 0.5, dt=1e-2, outputs=list(cli.OUTPUTS))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.02,0.01"]) == 0


def write_tables(out_dir, chunks, cfg):
    """The tables of ``chunks`` as run writes them, in cfg's format; returns their paths."""
    return _format._write_tables(out_dir, chunks, cfg.format, cli._metadata(cfg))


def wrap_kernels(monkeypatch, wrap):
    """Put wrap(kernel) in place of both float kernels of the writer, format_g17 and format_repr."""
    for name in ("format_g17", "format_repr"):
        monkeypatch.setattr(_format, name, wrap(getattr(_format, name)))


def per_row_bytes(header, rows, cfg):
    """A table as the per-row writers wrote it: one "%.17g" line per row, or json.dumps of it all."""
    rows = np.asarray(rows, dtype=float).tolist()
    if cfg.format == "csv":
        line = ",".join(["%.17g"] * len(header)) + "\n"
        return (",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)).encode()
    key = "samples" if header[0] == "t" else "rows"
    payload = {"columns": header, "metadata": cli._metadata(cfg), key: [dict(zip(header, row)) for row in rows]}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_shared_columns_are_written_as_per_row(fmt, cpus, tmp_path, monkeypatch):
    # propagator and states share their columns, and all three tables share t;
    # the edge values sit in the last rows, in the last process's range
    forks = use_cpus(monkeypatch, cpus)
    cfg = cli.ScenarioConfig(scenario="su2-generic", format=fmt)
    rng = np.random.default_rng(11)
    edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -1e300]
    block = _format._BLOCK_ROWS
    for n in (1, 2, 3, block - 1, block, block + 1, 2 * block + 1):
        ts = np.arange(n) * 0.01 - 0.05
        u = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        u *= 10.0 ** rng.integers(-20, 20, (n, 2, 2))
        u.reshape(-1).view(float)[-len(edge):] = edge
        e1, e2 = rng.standard_normal((2, n))
        e2[-1] = math.nan
        series = cli._series(ts, None, None, None, None, u=u, energies=lambda: {"E_1": e1, "E_2": e2})
        tables = [(name, *series[name]()) for name in ("propagator", "states", "energies")]
        expected = {
            "propagator": np.column_stack([ts, u.reshape(n, -1).view(float)]),
            "states": np.column_stack([ts, np.swapaxes(u, 1, 2).reshape(n, -1).view(float)]),
            "energies": np.column_stack([ts, e1, e2]),
        }
        out = tmp_path / str(n)
        out.mkdir()
        before = len(forks)
        paths = write_tables(out, [tables], cfg)
        assert len(forks) - before == min(-(-n // block), cpus) - 1  # one range per block at most
        assert sorted(os.listdir(out)) == sorted(f"{name}.{fmt}" for name in expected)
        for (name, header, _), path in zip(tables, paths):
            assert path == out / f"{name}.{fmt}"
            assert path.read_bytes() == per_row_bytes(header, expected[name], cfg), (n, name)


def test_one_output_is_written_over_every_cpu(tmp_path, monkeypatch):
    data = {}
    for cpus in (1, 3, 40):
        forks = use_cpus(monkeypatch, cpus)
        cfg = cli.validate_config(
            cli.ScenarioConfig(
                scenario="yang-lee-closed", t_start=T0, t_end=T0 + 2.5, dt=1e-3,
                outputs=("propagator",), out_path=str(tmp_path / str(cpus)),
            )
        )
        _, written = cli.run_scenario(cfg)
        # one worker per further CPU, up to the range cap that bounds the files
        # held open: the 2,501 rows are 20 blocks, more than the cap
        assert len(forks) == {1: 0, 3: 2, 40: _format._MAX_RANGES - 1}[cpus]
        data[cpus] = written[0].read_bytes()
    assert data[40] == data[3] == data[1]


def test_a_failing_range_raises_its_error_and_leaves_no_file(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()
    cfg = cli.ScenarioConfig(scenario="yang-lee-closed")
    block = _format._BLOCK_ROWS
    ts = np.arange(3.0 * block)  # three blocks: the first to this process, one to each worker
    tables = [("table", ["t", "x"], [ts, -ts])]

    def fail_in_the_workers(kernel):
        def fail(values):
            first = abs(values[0, 0])  # the first t of the block
            if first >= 2 * block:
                raise StepTooLarge("the third range failed")
            if first >= block:
                raise NotPositiveDefinite("the second range failed", t=first, index=3)
            return kernel(values)

        return fail

    wrap_kernels(monkeypatch, fail_in_the_workers)
    with pytest.raises(NotPositiveDefinite) as info:
        write_tables(tmp_path, [tables], cfg)
    assert (str(info.value), info.value.t, info.value.index) == ("the second range failed", block, 3)
    assert os.listdir(tmp_path) == []  # neither the table cut short nor a temporary file

    def exit_in_the_workers(kernel):
        return lambda values: os._exit(3) if os.getpid() != parent else kernel(values)

    wrap_kernels(monkeypatch, exit_in_the_workers)
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        write_tables(tmp_path, [tables], cfg)
    assert os.listdir(tmp_path) == []  # neither the table cut short nor a temporary file


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_tables_written_chunk_by_chunk_have_the_bytes_of_one_chunk(fmt, cpus, tmp_path, monkeypatch):
    # a later chunk's JSON rows continue the list of the first, an empty chunk
    # adds nothing, and each chunk's rows are cut over the CPUs on their own
    forks = use_cpus(monkeypatch, cpus)
    cfg = cli.ScenarioConfig(scenario="su2-generic", format=fmt)
    rng = np.random.default_rng(5)
    n = 2 * _format._BLOCK_ROWS + 3
    ts = np.arange(n) * 0.01 - 0.05
    u = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    e1, e2 = rng.standard_normal((2, n))

    def tables(lo, hi):
        energies = lambda: {"E_1": e1[lo:hi], "E_2": e2[lo:hi]}
        series = cli._series(ts[lo:hi], None, None, None, None, u=u[lo:hi], energies=energies)
        return [(name, *series[name]()) for name in ("propagator", "states", "energies")]

    whole, chunked = tmp_path / "whole", tmp_path / "chunked"
    whole.mkdir()
    chunked.mkdir()
    write_tables(whole, [tables(0, n)], cfg)
    cuts = [0, 1, _format._BLOCK_ROWS + 2, n]  # one row, a block and one row, the rest
    empty = [(name, header, [col[:0] for col in cols]) for name, header, cols in tables(0, 1)]
    before = len(forks)
    chunks = [empty, *(tables(lo, hi) for lo, hi in zip(cuts, cuts[1:])), empty]
    paths = write_tables(chunked, iter(chunks), cfg)
    # the row is one range; each chunk of a block and one row is two, one per block
    assert len(forks) - before == {1: 0, 3: 1 + 1}[cpus]
    assert sorted(os.listdir(chunked)) == sorted(os.listdir(whole)) == sorted(path.name for path in paths)
    for path in paths:
        assert path.read_bytes() == (whole / path.name).read_bytes(), path.name


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_bytes_do_not_depend_on_the_kernel_budget(fmt, cpus, tmp_path, monkeypatch):
    # the kernel is called on blocks of _BLOCK_VALUES values, and its strings
    # are joined into rows _BLOCK_ROWS rows at a time: a budget of one value
    # calls it on single rows, 127 and 129 cut its blocks across the string
    # blocks, and 10^6 takes each range whole, so that a string block starts
    # inside a kernel block, where a JSON block must start with ",\n"
    use_cpus(monkeypatch, cpus)
    cfg = cli.ScenarioConfig(scenario="su2-generic", format=fmt)
    calls = tmp_path / "calls"  # the shape of each kernel call, by any process

    def recording(kernel):
        def record(values):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write("%d %d\n" % values.shape)
            return kernel(values)

        return record

    wrap_kernels(monkeypatch, recording)
    rng = np.random.default_rng(17)
    block = _format._BLOCK_ROWS
    n = 2 * block + 3
    ts = np.arange(n) * 0.01 - 0.05
    x, y = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-20, 20, (2, n))
    x[::7] = -0.0

    def tables(lo, hi):  # t shared, y's copy bit-equal to y: three distinct columns
        a, b = [ts[lo:hi], x[lo:hi], y[lo:hi]], [ts[lo:hi], y[lo:hi].copy(), x[lo:hi]]
        return [("a", ["t", "x", "y"], a), ("b", ["t", "y_copy", "x"], b)]

    cuts = [0, block + 2, block + 3, n]  # a block and two rows, one row, the rest

    def write(name):
        out = tmp_path / name
        out.mkdir()
        calls.unlink(missing_ok=True)
        paths = write_tables(out, [tables(lo, hi) for lo, hi in zip(cuts, cuts[1:])], cfg)
        shapes = [tuple(map(int, line.split())) for line in calls.read_text(encoding="utf-8").splitlines()]
        return {path.name: path.read_bytes() for path in paths}, shapes

    default, shapes = write("default")
    assert sum(rows for _, rows in shapes) == n and {k for k, _ in shapes} == {3}
    whole = {"a": np.column_stack([ts, x, y]), "b": np.column_stack([ts, y, x])}
    for name, header, _ in tables(0, 1):
        assert default[f"{name}.{fmt}"] == per_row_bytes(header, whole[name], cfg), name
    for budget in (1, 127, 129, 10**6):
        monkeypatch.setattr(_format, "_BLOCK_VALUES", budget)
        written, shapes = write(str(budget))
        assert written == default, budget
        assert sum(rows for _, rows in shapes) == n
        assert all(k * rows <= budget or rows == 1 for k, rows in shapes), (budget, shapes)
        if budget == 10**6:  # on one CPU, the first chunk's second string block starts inside its one call
            assert any(rows > block for _, rows in shapes) == (cpus == 1)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_value_equal_columns_are_formatted_once(fmt, cpus, tmp_path, monkeypatch):
    # columns are told apart by their bits, chunk by chunk, not by identity: a
    # copy of t, separate all-zero arrays and separate NaN arrays of one bit
    # pattern are formatted once, -0.0 stays apart from 0.0, and y and z merge
    # in the first chunk only
    use_cpus(monkeypatch, cpus)
    cfg = cli.ScenarioConfig(scenario="su2-generic", format=fmt)
    counts = tmp_path / "formatted"  # one line per block formatted, by any process

    def counting(kernel):
        def count(values):
            with open(counts, "a", encoding="utf-8") as fh:
                fh.write(f"{values.size}\n")
            return kernel(values)

        return count

    wrap_kernels(monkeypatch, counting)
    formatted = lambda: sum(map(int, counts.read_text(encoding="utf-8").split())) if counts.exists() else 0
    rng = np.random.default_rng(3)
    sizes = (2 * _format._BLOCK_ROWS + 3, 5)
    ts = np.arange(sum(sizes)) * 0.01 - 0.05
    x, y = rng.standard_normal((2, len(ts)))
    z = np.where(np.arange(len(ts)) < sizes[0], y, -y)

    def tables(lo, hi):
        n = hi - lo
        a = [ts[lo:hi], x[lo:hi], np.zeros(n), np.full(n, -0.0), np.full(n, math.nan), y[lo:hi]]
        b = [ts[lo:hi].copy(), np.zeros(n), np.full(n, 0.0), np.full(n, math.nan), x[lo:hi], z[lo:hi]]
        return [
            ("a", ["t", "x", "zero", "neg_zero", "nan", "y"], a),
            ("b", ["t", "zero", "pos_zero", "nan", "x", "z"], b),
        ]

    cuts = [0, sizes[0], len(ts)]
    chunks = [tables(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    distinct = [len({col.tobytes() for _, _, cols in chunk for col in cols}) for chunk in chunks]
    assert distinct == [6, 7]  # t, x, 0.0, -0.0, NaN and y; z is y in the first chunk only
    per_chunk = []

    def counted():
        for chunk in chunks:
            yield chunk
            per_chunk.append(formatted() - sum(per_chunk))  # the chunk's rows are written

    out = tmp_path / "out"
    out.mkdir()
    paths = write_tables(out, counted(), cfg)
    assert per_chunk == [size * k for size, k in zip(sizes, distinct)]
    for (name, header, cols), path in zip(tables(0, len(ts)), paths):
        assert path.read_bytes() == per_row_bytes(header, np.column_stack(cols), cfg), name


def test_a_closed_run_formats_each_bit_distinct_column_once(tmp_path, monkeypatch):
    # along the Yang-Lee map eta has equal diagonal entries and equal real
    # off-diagonal parts, and h and u are diagonal: the 37 column objects of
    # the 7 series hold copies of one another, and zeros
    use_cpus(monkeypatch, 1)
    series, built = cli._series, []

    def recording(*args):
        return {name: (lambda b=build: built.append(b()) or built[-1]) for name, build in series(*args).items()}

    monkeypatch.setattr(cli, "_series", recording)
    formatted = []
    wrap_kernels(monkeypatch, lambda kernel: lambda values: formatted.append(values.size) or kernel(values))
    exact, fallback = _format._exact, []
    monkeypatch.setattr(_format, "_exact", lambda values: fallback.append(values.size) or exact(values))
    out = str(tmp_path / "out")
    write_config(tmp_path / "cfg.json", t_end=T0 + 0.5, dt=1e-2, outputs=list(cli.OUTPUTS), out_path=out)
    assert cli.main(["run", str(tmp_path / "cfg.json")]) == 0
    columns = [col for _, cols in built for col in cols]
    rows, distinct = len(columns[0]), len({np.asarray(col, dtype=float).tobytes() for col in columns})
    # 51 columns in all, 37 column objects (t and the propagator's are shared)
    assert (len(built), len(columns), len(set(map(id, columns))), rows) == (7, 51, 37, 51)
    assert sum(formatted) == rows * distinct
    assert distinct < 37
    assert fallback == []  # no value went through Python's per-value "%.17g"


def test_a_generic_json_run_formats_each_bit_distinct_column_once(tmp_path, monkeypatch):
    # the JSON twin of the closed run above: su2-generic, every output, and
    # almost no value left to Python's per-value repr, although the residual
    # columns hold many powers of two
    use_cpus(monkeypatch, 1)
    series, built = cli._series, []

    def recording(*args):
        return {name: (lambda b=build: built.append(b()) or built[-1]) for name, build in series(*args).items()}

    monkeypatch.setattr(cli, "_series", recording)
    formatted = []
    wrap_kernels(monkeypatch, lambda kernel: lambda values: formatted.append(values.size) or kernel(values))
    exact, fallback = _format._exact_repr, []
    monkeypatch.setattr(_format, "_exact_repr", lambda values: fallback.append(values.size) or exact(values))
    cfg = rotated_yang_lee_config(0.6, tmp_path / "out", t_start=0.0, t_end=2.0, dt=2e-3, format="json")
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "outputs": list(cli.OUTPUTS)}), encoding="utf-8")
    assert cli.main(["run", str(tmp_path / "cfg.json")]) == 0
    columns = [col for _, cols in built for col in cols]
    rows, distinct = len(columns[0]), len({np.asarray(col, dtype=float).tobytes() for col in columns})
    assert (len(built), rows) == (7, 1001)
    assert sum(formatted) == rows * distinct
    assert sum(fallback) < 1e-3 * sum(formatted)


# --- runs in chunks ------------------------------------------------------

# A chunk of 200 steps, so that windows of a few hundred steps cross chunk
# boundaries. Numeric runs of more than one chunk must give every series
# value and report value within CHUNK_BOUND * max(1, |value|) of one pass
# over the grid (the largest difference seen is 3.1e-15, in the metric), and
# the t column and the closed forms of each chunk byte for byte. Closed runs
# keep every byte over any number of chunks: their forms are elementwise in
# t and each of their checks folds as its mode says.
CHUNK = 200
CHUNK_BOUND = 1e-13


def chunk_config(scenario, steps, out_path):
    if scenario == "su2-generic":
        return rotated_yang_lee_config(0.6, str(out_path), t_start=0.0, t_end=steps * 5e-3, dt=5e-3)
    # over 3 * CHUNK + 5 steps from -1.25, the least h1_not_quasi_hermitian
    # lies in the last chunk and every other check's greatest value in one
    # before it, so that a fold by the wrong one of max and min shows
    t_start = -1.25 if scenario == "yang-lee-closed" else -0.5
    return {
        "scenario": scenario, "gamma": 0.6, "omega": 0.9, "t_start": t_start,
        "t_end": t_start + steps * 5e-3, "dt": 5e-3, "out_path": str(out_path),
    }


def run_in_chunks(monkeypatch, chunk_steps, raw, tmp_path):
    """report.json and the CSV lines of every output of one run, with chunks of chunk_steps steps."""
    monkeypatch.setattr(cli, "CHUNK_STEPS", chunk_steps)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "outputs": list(cli.OUTPUTS)}), encoding="utf-8")
    assert cli.main(["run", str(cfg_path)]) == 0
    out = Path(raw["out_path"])
    tables = {name: (out / f"{name}.csv").read_text().splitlines() for name in cli.OUTPUTS}
    return json.loads((out / "report.json").read_text())["report"], tables


def assert_within_chunk_bound(ref, new):
    ref, new = np.asarray(ref, dtype=float), np.asarray(new, dtype=float)
    assert np.all(np.abs(new - ref) <= CHUNK_BOUND * np.maximum(1.0, np.abs(ref)))


def test_checks_fold_over_chunks_by_their_mode():
    # whatever its name, a check keeps the least value of the chunks for
    # min_gt and the greatest for max_le and max_gt; a NaN in either stays
    modes = ["max_le", "min_gt", "max_gt", "min_gt", "max_le", "min_gt"]
    values = [1e-3, 0.5, 0.2, 0.4, math.nan, 0.3]
    first = [cli.Check(name, value, 1e-2, mode) for name, value, mode in zip("abcdef", values, modes)]
    second = [replace(c, value=value) for c, value in zip(first, [3e-3, 0.25, 0.1, 0.6, 1e-3, math.nan])]
    for one, other in ((first, second), (second, first)):
        folded = cli._reduce_checks(one, other)
        assert [c.value for c in folded[:4]] == [3e-3, 0.25, 0.2, 0.4]
        assert math.isnan(folded[4].value) and math.isnan(folded[5].value)
        assert [(c.name, c.tolerance, c.mode) for c in folded] == [(c.name, c.tolerance, c.mode) for c in first]
        assert [c.passed for c in folded] == [True, True, True, True, False, False]
    lines = cli.VerificationReport("s", tuple(folded)).format().splitlines()
    assert [line.split()[2] for line in lines[1:-1]] == ["<=", ">", ">", ">", "<=", ">"]
    # Check.of folds the samples of one chunk by the same rule, whatever
    # their shape: an array, a list of arrays (one may be empty) or of
    # scalars, or one scalar; no samples give -inf or +inf, and a NaN
    # anywhere stays and fails
    array = np.array([0.3, 0.1, 0.2])
    parts = [np.array([0.3]), np.array([]), np.array([0.1, 0.2])]
    for mode, kept, empty in (("max_le", 0.3, -math.inf), ("min_gt", 0.1, math.inf), ("max_gt", 0.3, -math.inf)):
        for samples in (array, parts, [0.3, 0.1, 0.2]):
            check = cli.Check.of("x", samples, 0.2, mode)
            assert check == cli.Check("x", kept, 0.2, mode) and type(check.value) is float
            assert check.passed == (mode == "max_gt")  # 0.3 > 0.2, but neither 0.1 > 0.2 nor 0.3 <= 0.2
        assert cli.Check.of("x", np.float64(0.25), 0.2, mode).value == 0.25
        assert cli.Check.of("x", np.array([]), 0.2, mode).value == cli.Check.of("x", [], 0.2, mode).value == empty
        for samples in (np.array([0.3, math.nan, 0.1]), [*parts, np.array([math.nan])], math.nan):
            check = cli.Check.of("x", samples, 0.2, mode)
            assert math.isnan(check.value) and not check.passed
    assert cli.Check.of("x", array, 0.2).mode == "max_le"
    # an unknown mode is refused when the check is constructed, either way
    with pytest.raises(ValueError, match="unknown check mode 'min_le'"):
        cli.Check("f", 0.0, 1.0, "min_le")
    with pytest.raises(ValueError, match="unknown check mode 'min_le'"):
        cli.Check.of("f", array, 1.0, "min_le")


@pytest.mark.parametrize(
    "scenario, target, name",
    [
        ("yang-lee-closed", "energy_expectation", "energy_matches_h_expectation"),
        ("yang-lee-numeric", "psi_pm", "rho_inner_preserved"),
    ],
)
def test_a_nan_sample_fails_its_check(scenario, target, name, tmp_path, monkeypatch, capsys):
    # folded by a Python max from 0.0, a NaN sample used to vanish and pass:
    # here one closed energy sample, or the numeric oracle's start states
    real = getattr(cli, target)

    def poisoned(t, *args):
        out = real(t, *args)
        if np.ndim(t) == (scenario == "yang-lee-closed"):  # array calls for closed, the start for numeric
            out = np.array(out)
            out.flat[0] = math.nan
        return out

    monkeypatch.setattr(cli, target, poisoned)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scenario=scenario, t_start=0.0, t_end=1.0, dt=1e-2, outputs=[])
    assert cli.main(["verify", str(cfg_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    [row] = [line.split() for line in lines if line.split()[0] == name]
    assert (row[1], row[-1], lines[-1]) == ("nan", "FAIL", "overall: FAIL")


@pytest.mark.parametrize("scenario", ["yang-lee-closed", "yang-lee-numeric", "su2-generic"])
@pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_a_run_in_chunks_matches_one_pass(scenario, steps, tmp_path, monkeypatch):
    times = []
    real_times = cli._times
    monkeypatch.setattr(cli, "_times", lambda grid, lo, hi: times.append(real_times(grid, lo, hi)) or times[-1])
    whole = run_in_chunks(monkeypatch, 10**9, chunk_config(scenario, steps, tmp_path / "whole"), tmp_path)
    whole_times, times[:] = times[:], []
    report, tables = run_in_chunks(monkeypatch, CHUNK, chunk_config(scenario, steps, tmp_path / "chunks"), tmp_path)
    assert len(times) == max(1, -(-steps // CHUNK))
    assert report["overall"] == whole[0]["overall"] == "PASS"
    if steps <= CHUNK or scenario == "yang-lee-closed":  # one pass's every byte
        assert (report, tables) == whole
    else:
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in whole[0]["checks"]]
        assert_within_chunk_bound([c["value"] for c in whole[0]["checks"]], [c["value"] for c in report["checks"]])
        for name, lines in tables.items():
            ref = whole[1][name]
            assert lines[0] == ref[0] and len(lines) == len(ref) == steps + 2, name
            assert [line.split(",")[0] for line in lines] == [line.split(",")[0] for line in ref], name
            assert_within_chunk_bound(np.loadtxt(ref[1:], delimiter=","), np.loadtxt(lines[1:], delimiter=","))
    # each chunk's times, and the closed forms over them, are those rows of the whole grid
    (grid_times,) = whole_times
    assert np.array_equal(np.concatenate(times), grid_times)
    assert not np.any(np.signbit(np.concatenate(times)) != np.signbit(grid_times))
    p = cli.YangLeeParams(gamma=0.6, omega=0.9)
    raw = chunk_config(scenario, steps, tmp_path)
    if scenario == "su2-generic":
        _, _, (h, zeta) = cli._SCENARIOS["su2-generic"].model(cli.validate_config(cli.ScenarioConfig(**raw)))
    else:
        h, zeta = cli.h1_su2(p), cli.rho_closed_constants(p)
    closed_forms = [lambda t: zeta_metric(t, h, zeta).matrix()]
    if scenario != "su2-generic":
        closed_forms += [lambda t: cli.eta_closed(t, p).eta, lambda t: cli.rabi_h(t, p),
                         lambda t: cli.u_closed(t, p), lambda t: cli.psi_pm(t, +1, p)]
    if scenario == "yang-lee-closed":
        closed_forms += [lambda t: cli.rho_closed(t, p), lambda t: cli.rho_closed_dot(t, p),
                         lambda t: cli.eta_closed(t, p).eta_dot, lambda t: cli.psi_pm(t, -1, p),
                         lambda t: cli.energy_expectation(t, +1, p), lambda t: cli.theta_dot(t, p)]
    lo = 0
    for ts in times:
        for form in closed_forms:
            whole_rows, chunk_rows = form(grid_times)[lo : lo + len(ts)], form(ts)
            assert whole_rows.tobytes() == np.ascontiguousarray(chunk_rows).tobytes()
            assert np.ascontiguousarray(whole_rows).tobytes() == np.ascontiguousarray(chunk_rows).tobytes()
        lo += len(ts)


@pytest.mark.parametrize("dt, step", [(0.16, 300), (0.17, 200)])
def test_a_step_too_large_in_a_later_chunk_names_the_time_of_one_pass(dt, step, monkeypatch, capsys):
    # near the exceptional point the metric's local error check fails first
    # at this step, past the first chunk; with dt 0.17 the propagator's fails
    # at step 0 of the first chunk, but one pass integrates the metric first
    # and names its failure, and so must a run in chunks
    p = cli.YangLeeParams(gamma=0.999, omega=1.0)
    cfg = cli.validate_config(cli.ScenarioConfig(
        scenario="yang-lee-numeric", gamma=0.999, omega=1.0, dt=dt, t_start=p.t0, t_end=p.t0 + 1000 * dt,
    ))
    messages = []
    for chunk_steps in (10**9, CHUNK):
        monkeypatch.setattr(cli, "CHUNK_STEPS", chunk_steps)
        with pytest.raises(StepTooLarge) as info:
            cli.run_scenario(cfg, write_files=False)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"at t = {p.t0 + step * dt:.6g}; reduce dt")


def test_a_table_that_cannot_be_opened_raises_its_error_and_removes_only_the_tables_opened(tmp_path):
    # metric.csv is a directory: its open fails once dyson.csv is open. The
    # open's error is raised with no second error chained to it, dyson.csv is
    # removed, and the directory is left as it was found
    out = tmp_path / "out"
    (out / "metric.csv").mkdir(parents=True)
    write_config(tmp_path / "cfg.json", t_end=0.0, dt=0.01, outputs=["dyson", "metric"], out_path=str(out))
    with pytest.raises(IsADirectoryError) as info:
        cli.main(["run", str(tmp_path / "cfg.json")])
    assert info.value.filename == str(out / "metric.csv")
    assert info.value.__context__ is None and info.value.__cause__ is None
    assert os.listdir(out) == ["metric.csv"]
    assert os.listdir(out / "metric.csv") == []


def test_verify_compiles_none_of_the_writer(tmp_path):
    # _format, the writer and its float kernels, is imported on a write path
    # alone, in a fresh interpreter: verify never compiles it, run does
    write_config(tmp_path / "cfg.json", t_end=T0 + 0.5, dt=1e-2)
    code = (
        "import sys\n"
        "from dysonflow import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(status, 'dysonflow._format' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for verb, imported in (("verify", "False"), ("run", "True")):
        argv = [sys.executable, "-c", code, verb, str(tmp_path / "cfg.json")]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"0 {imported}", verb


def test_a_run_whose_later_chunk_raises_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the metric's local error check fails in the second chunk, once the first
    # chunk's rows are in the open table files: the run removes them all and
    # writes no report.json
    monkeypatch.setattr(cli, "CHUNK_STEPS", CHUNK)
    formatted = []
    wrap_kernels(monkeypatch, lambda kernel: lambda values: formatted.append(1) or kernel(values))
    p = cli.YangLeeParams(gamma=0.999, omega=1.0)
    out = tmp_path / "out"
    write_config(
        tmp_path / "cfg.json", scenario="yang-lee-numeric", gamma=0.999, dt=0.16, t_start=p.t0,
        t_end=p.t0 + 1000 * 0.16, outputs=list(cli.OUTPUTS), out_path=str(out),
    )
    assert cli.main(["run", str(tmp_path / "cfg.json")]) == 1
    assert capsys.readouterr().err.endswith(f"at t = {p.t0 + 300 * 0.16:.6g}; reduce dt\n")
    assert formatted  # the first chunk was written before the error came
    assert os.listdir(out) == []


def test_a_run_without_outputs_forks_nothing_and_writes_the_report_alone(tmp_path, monkeypatch):
    # ten chunks, each of which hands the writer an empty list of tables
    forks = use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "CHUNK_STEPS", CHUNK)
    write_config(tmp_path / "cfg.json", outputs=[])
    assert cli.main(["run", str(tmp_path / "cfg.json")]) == 0
    assert forks == []
    assert os.listdir(tmp_path / "out") == ["report.json"]


def test_a_propagator_failure_in_a_later_chunk_names_the_time_of_one_pass(monkeypatch):
    # a source 40 times as large from t = 3.5 on fails the local error check
    # at step 400 (t = 4), in the third chunk of 4, with the message of one pass
    p = cli.YangLeeParams(gamma=0.5, omega=1.0)
    grid = IntegrationGrid(0.0, 6.05, 0.01)
    rho0 = cli.rho_closed(0.0, p)

    def large(t):
        return cli.rabi_h(t, p) * np.where(t > 3.5, 40.0, 1.0)[:, None, None]

    messages = []
    for chunk_steps in (10**9, CHUNK):
        monkeypatch.setattr(cli, "CHUNK_STEPS", chunk_steps)
        with pytest.raises(StepTooLarge) as info:
            list(cli._numeric_chunks(grid, cli.h1_su2(p), rho0, large))
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "at t = 4;" in messages[0]
