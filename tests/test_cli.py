"""Front-end behavior: verbs, exit codes, reproducible files, schema stability."""

import hashlib
import json
import math
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from dysonflow import (
    DysonSample,
    cli,
    hermitian_counterpart,
    hermitian_sqrt,
    zeta_metric,
)
from dysonflow._parallel import _fork_map
from dysonflow.errors import NotPositiveDefinite, StepTooLarge

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
    "zeta, message",
    [
        # det rho = 0.75 > 0 but alpha = -1: negative definite for all t
        ([0.0, 0.0, 1.0, 0.0], "(alpha = -1, det rho = 0.75)"),
        # det rho = -1: indefinite for all t
        ([0.0, 0.0, 0.0, 1.0], "(alpha = 0, det rho = -1)"),
    ],
)
def test_su2_generic_refuses_zeta_constants_without_a_positive_metric(zeta, message, tmp_path, capsys):
    # kappa = -e_z, lambda = -e_x / 2: det rho = 0.75 c3^2 - c4^2 - 0.25 (c1^2 + c2^2)
    out = tmp_path / "out"
    cfg = {
        "scenario": "su2-generic",
        "t_start": 0.0,
        "t_end": 0.5,
        "dt": 1e-2,
        "kappa_vec": [0.0, 0.0, -1.0],
        "lambda_vec": [-0.5, 0.0, 0.0],
        "zeta_constants": zeta,
        "outputs": ["metric"],
        "out_path": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for argv in (["run"], ["verify"], ["sweep", "--param", "dt", "--values", "0.01,0.005"]):
        assert cli.main([argv[0], str(cfg_path), *argv[1:]]) == 2, argv
        assert capsys.readouterr().err == (
            "config error: su2-generic: zeta_constants give a metric that is not "
            f"positive definite {message}\n"
        )
        assert not out.exists(), argv


# sha256 of each CSV written by the configuration below. The six closed-form
# series were recorded before the numeric kernels were batched and must not
# move a byte; the invariants were re-recorded when the 2x2 products went
# entry by entry (su2.mul)
GOLDEN_CLOSED_CSV = {
    "metric": "8909d20541b3466920f2388e4d171f7c6f7d08721a54166396351b84fdc44c16",
    "dyson": "10f8c6cb30a31419cbf9f10e74493b5a2b560c48d0b99510094a94479b5c57ed",
    "hermitian_h": "bed03994ecf978fce47b0b37f06cbe1b46ffe0a3b29da055dff969cf7a8150bc",
    "states": "616f40b2be62d050427b36f091b47a3fa00b628ea250b9a83d116b141ac5c5aa",
    "propagator": "854e97560497da5e51625fcc94dffc965a30e06ff4d6310844c48dd04a9a011d",
    "energies": "753e8900090c35089a37ff919493ff501bf7a2d994220708293fcc55924f253c",
    "invariants": "f446d7d8da165837207b1ffb79149a615ab29da5481370a0e3495b772bdc7208",
}


def test_closed_scenario_csv_matches_golden_hashes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path, gamma=0.37, omega=0.8, t_start=-0.25, t_end=0.75, dt=0.01,
        outputs=list(GOLDEN_CLOSED_CSV),
    )
    assert cli.main(["run", str(cfg_path)]) == 0
    for name, digest in GOLDEN_CLOSED_CSV.items():
        data = (tmp_path / "out" / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


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


def test_su2_source_matches_finite_difference_formula():
    cfg = cli.validate_config(cli.ScenarioConfig(**rotated_yang_lee_config(0.6, "unused")))
    h, zeta, _period = cli._su2_config(cfg)
    ts = np.array([0.0, 0.37, 1.9, 4.2, 7.5])
    exact = cli._su2_h_source(h, zeta)(ts)
    assert exact.shape == (5, 2, 2)
    fd = 1e-6
    for t, h_exact in zip(ts, exact):
        root = lambda s: hermitian_sqrt(zeta_metric(s, h, zeta).matrix())
        sample = DysonSample(t=t, eta=root(t), eta_dot=(root(t + fd) - root(t - fd)) / (2.0 * fd))
        assert np.linalg.norm(h_exact - hermitian_counterpart(h.matrix(), sample)) < 1e-8
        assert np.linalg.norm(h_exact - h_exact.conj().T) < 1e-13


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
    # gamma near 0 and near the exceptional point at 1, from the anchor time to t = 6
    for gamma in (0.01, 0.99, 0.999):
        cfg_path = tmp_path / f"cfg_{gamma}.json"
        t0 = -math.pi / (2.0 * math.sqrt(1.0 - gamma**2))
        write_config(
            cfg_path, scenario="yang-lee-numeric", gamma=gamma, t_start=t0, t_end=6.0, outputs=[]
        )
        assert cli.main(["verify", str(cfg_path)]) == 0  # overall PASS


# sha256 of every CSV and of report.json written by the two configurations
# below (numpy 2.4.6), recorded before the 2x2 rules moved into su2 and
# re-recorded when the 2x2 products went entry by entry (su2.mul); the
# su2-generic propagator, states, energies and report again when the RK4
# scan composed its 2x2 steps with su2.mul (the numeric ones kept their bytes)
GOLDEN_NUMERIC = {
    "metric": "f460fa7423825c0e43640afcadb74b71bbb648648cca130a5531e625a19066e3",
    "dyson": "54081992f02a5471d6912cfaee077adcefb5beb977a74ca8f6b5816fe2ec008d",
    "hermitian_h": "6d8e2ecbc7fe3e32a4d2de525f3c11f5fe53be4fc45f7e45671a74b9868b00b0",
    "states": "0bb0e0e0733ed17bbae6c8128096e855454528b1b3c4a5f36b6deb30f71e2ae0",
    "propagator": "f6810995849d1a7fe4ac3fba7bc971f95dfc2983a5ad97ff8cba423757a8a824",
    "energies": "3faa977091455bf70f62c75e1b1b2754713bfb2c8b311504e4ac7a409c67c513",
    "invariants": "08a4e94968e5268bc334f1a4c0eae59dae9d976c8c33b22247a512cf84898075",
    "report": "df2f1a841d84eba157d5f2a42f0f1a04de41eaff3ab0963081a9f24f2542c98c",
}
GOLDEN_SU2_GENERIC = {
    "metric": "04a05d064cc7315d99e57bda4b60ddd1dd798ab6e3aec93e104c6e755877a21c",
    "dyson": "95e8bd1bb37111fe9ac68b573fc2d566e1fb55a97c49cc8ea00916142467ec0a",
    "hermitian_h": "852f525cef29736221f0a4a7765d984062154cc7095255a7c8667d01e25f73c0",
    "states": "d8591d9b0ed7bb33701fbe063a3cc2aa04e69c45ef7c6e231f9ecb9de9e2fd3a",
    "propagator": "abdb9f24fdfc94f63113d2fce45f275bffab240de3e750bc8b548fe954140f08",
    "energies": "779c2b5282b5c22e05ec2edbb68a0df1e726eb7b6172a4da734199e21a0c89f9",
    "invariants": "6c208c6fa052c4c32a8a4297524bda0115d3289515353fdb1cac34f6d6e226cc",
    "report": "afcef3de3d6154d2fac273d6f8e477e917c4704ab5040b156f5fe71f08c69b6f",
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


# sha256 of all 7 series and report.json written as JSON by the su2-generic
# configuration above, and of a JSON dt sweep of it, recorded while the JSON
# series still went through json.dump and re-recorded with su2.mul; the
# propagator, states, energies and report again with the su2.mul RK4 scan
GOLDEN_SU2_GENERIC_JSON = {
    "metric": "87b83f62e0796a0314ecdfa8e753d68a2937b92f6e2b4ccbcfe5401967fde7c1",
    "dyson": "ccd339594ca50f4983f48d0c0484f12637f2e92d927985067c23dde5a8e8048b",
    "hermitian_h": "024a97864cf4691117bd3b8e26f8c7ea755a25ef2f55042baaf320c8f2d7ee75",
    "states": "3df0e38bfe826d1e01640721b10f8e865eb3dc6ab58c62972a4880a811e046e1",
    "propagator": "6ae5af2f58fe238c344ca1d383bc16e426ccdbea1192723b893497896e2ea8bf",
    "energies": "65d3c2ec5c4fb3cdffa8d4d16645cc6aa30c468d2aeb8e128789fe15e618a164",
    "invariants": "437c3506c38b2301784eab701a6d0f009cb70b37c7c6f595c71fc7d3e51490ea",
    "report": "564b7a9ffdbbeb69e3a78d5dcc28d1fd91ea7e88389c6c006368ce04131f6ba3",
}
GOLDEN_SU2_SWEEP_DT_JSON = "73b694ab0cf23efa4ff0107d812b12d8e5c7b5ea39f12db3afd0b3a1ac7e5fab"


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
    rng = np.random.default_rng(7)
    block = cli._JSON_BLOCK_ROWS
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
def test_window_too_short_for_eta_dot_is_a_config_error(scenario, tmp_path, capsys):
    # eta_dot takes five samples, so a numeric window needs four dt steps
    base = {"scenario": scenario} if scenario != "su2-generic" else rotated_yang_lee_config(0.6, "x")
    cfg_path = tmp_path / "cfg.json"
    for verb in ("run", "verify"):
        for t_end, status in ((0.03, 2), (0.04, 0)):
            raw = {**base, "t_start": 0.0, "t_end": t_end, "dt": 0.01, "out_path": str(tmp_path / verb)}
            cfg_path.write_text(json.dumps({**raw, "outputs": list(cli.OUTPUTS)}), encoding="utf-8")
            assert cli.main([verb, str(cfg_path)]) == status, (verb, t_end)
            err = capsys.readouterr().err
            if status == 2:
                assert err == (
                    f"config error: {scenario} needs a window of at least 4 dt steps for its "
                    "fourth-order eta_dot, got 3 (span 0.03, dt 0.01)\n"
                )
            else:
                assert err == ""
    assert len((tmp_path / "run" / "metric.csv").read_text().splitlines()) == 1 + 5
    # a sweep refuses the value whose window is too short, whichever process runs it
    cfg_path.write_text(json.dumps({**base, "t_start": 0.0, "t_end": 0.3, "out_path": str(tmp_path)}))
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01,0.1"]) == 2
    assert "needs a window of at least 4 dt steps" in capsys.readouterr().err
    assert cli.main(["sweep", str(cfg_path), "--param", "dt", "--values", "0.01,0.075"]) == 0


def test_unusable_out_path_is_a_config_error_before_any_run(tmp_path, monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("a pipeline ran before out_path was checked")

    monkeypatch.setitem(cli._PIPELINES, "yang-lee-closed", refuse)
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
    test_closed_scenario_csv_matches_golden_hashes(dirs[0])
    test_numeric_scenario_matches_golden_hashes(dirs[1], monkeypatch)
    test_su2_generic_scenario_matches_golden_hashes(dirs[2], monkeypatch)
    test_su2_generic_json_matches_golden_hashes(dirs[3], monkeypatch)  # and a JSON sweep of 2 dt values
    # two workers for each run of 7 series, one for the sweep of 2 values
    assert len(forks) == {1: 0, 3: 2 * 4 + 1}[cpus]


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
        assert written == [tmp_path / fmt / f"{name}.{fmt}" for name in outputs] + [
            tmp_path / fmt / "report.json"
        ]


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_raises_the_error_of_the_first_failing_value(cpus, tmp_path, monkeypatch):
    forks = use_cpus(monkeypatch, cpus)

    def row(cfg):
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
    block = cli._BLOCK_ROWS
    for n in (1, 2, 3, block - 1, block, block + 1):
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
        paths = cli._write_tables(out, tables, cfg, cli._usable_cpus())
        assert len(forks) - before == min(n, cpus) - 1
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
                scenario="yang-lee-closed", t_start=T0, t_end=T0 + 1.0, dt=1e-2,
                outputs=("propagator",), out_path=str(tmp_path / str(cpus)),
            )
        )
        _, written = cli.run_scenario(cfg)
        # one worker per further CPU, up to the range cap that bounds the files held open
        assert len(forks) == {1: 0, 3: 2, 40: cli._MAX_RANGES - 1}[cpus]
        data[cpus] = written[0].read_bytes()
    assert data[40] == data[3] == data[1]


def test_a_failing_range_raises_its_error_and_leaves_no_file(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()
    cfg = cli.ScenarioConfig(scenario="yang-lee-closed")
    ts = np.arange(30.0)  # rows 0-9 fall to this process, 10-19 and 20-29 to the two workers
    tables = [("table", ["t", "x"], [ts, -ts])]
    format_column = cli._format_column

    def fail_in_the_workers(values, as_json):
        first = abs(values[0])
        if first >= 20:
            raise StepTooLarge("the third range failed")
        if first >= 10:
            raise NotPositiveDefinite("the second range failed", t=first, index=3)
        return format_column(values, as_json)

    monkeypatch.setattr(cli, "_format_column", fail_in_the_workers)
    with pytest.raises(NotPositiveDefinite) as info:
        cli._write_tables(tmp_path, tables, cfg, 3)
    assert (str(info.value), info.value.t, info.value.index) == ("the second range failed", 10.0, 3)
    assert os.listdir(tmp_path) == []  # neither the table cut short nor a temporary file

    def exit_in_the_workers(values, as_json):
        if os.getpid() != parent:
            os._exit(3)
        return format_column(values, as_json)

    monkeypatch.setattr(cli, "_format_column", exit_in_the_workers)
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        cli._write_tables(tmp_path, tables, cfg, 3)
    assert os.listdir(tmp_path) == []  # neither the table cut short nor a temporary file
