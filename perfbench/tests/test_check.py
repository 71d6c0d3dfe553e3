import json

import check
import workloads

GENERIC = workloads.WORKLOADS["generic-propagate"]
CLOSED = workloads.WORKLOADS["closed-emit"]


def report(workload, failing=()):
    checks = [
        {"name": n, "value": 1.0, "tolerance": 1.0, "mode": "max_le", "status": "FAIL" if n in failing else "PASS"}
        for n in workload.checks
    ]
    return {"scenario": "x", "overall": "FAIL" if failing else "PASS", "checks": checks}


def write_run(root, fmt="csv", rows=3, rep=None):
    """A fake run of one 'metric' series with ``rows`` samples, plus its report."""
    out = root / "out"
    out.mkdir()
    if fmt == "csv":
        lines = ["t,alpha"] + [f"{i},{i * 0.5}" for i in range(rows)]
        (out / "metric.csv").write_text("\n".join(lines) + "\n")
    else:
        samples = [{"t": float(i), "alpha": 0.5 * i} for i in range(rows)]
        (out / "metric.json").write_text(json.dumps({"columns": ["t", "alpha"], "samples": samples}))
    (out / "report.json").write_text(json.dumps({"report": rep}))
    invocation = {"verb": "run", "config": {"out_path": "out", "format": fmt, "outputs": ["metric"]}, "samples": 3}
    return invocation, {"error": None, "report": rep}


def test_complete_run_passes(tmp_path):
    inv, result = write_run(tmp_path, rep=report(CLOSED))
    assert check.check_run(CLOSED, inv, result, tmp_path) == []


def test_truncated_csv_is_rejected(tmp_path):
    inv, result = write_run(tmp_path, rep=report(CLOSED))
    path = tmp_path / "out" / "metric.csv"
    path.write_bytes(path.read_bytes()[:-3])  # cut mid-row
    assert check.check_run(CLOSED, inv, result, tmp_path)


def test_csv_with_a_missing_row_is_rejected(tmp_path):
    inv, result = write_run(tmp_path, rows=2, rep=report(CLOSED))
    assert check.check_run(CLOSED, inv, result, tmp_path) == ["metric.csv has 2 rows, expected 3"]


def test_json_row_count_is_checked(tmp_path):
    inv, result = write_run(tmp_path, fmt="json", rows=4, rep=report(CLOSED))
    assert check.check_run(CLOSED, inv, result, tmp_path) == ["metric.json has 4 rows, expected 3"]


def test_unexpected_fail_is_rejected():
    assert check.check_report(CLOSED, report(CLOSED, failing={"dyson_relation"})) == [
        "unexpected FAIL of ['dyson_relation']"
    ]


def test_known_failure_may_fail_or_pass():
    assert check.check_report(GENERIC, report(GENERIC, failing={"u_unitary"})) == []
    assert check.check_report(GENERIC, report(GENERIC)) == []


def test_dropped_check_and_wrong_overall_are_rejected():
    rep = report(CLOSED)
    rep["checks"] = rep["checks"][1:]
    assert check.check_report(CLOSED, rep) == ["report lacks checks ['metric_hermitian']"]
    rep = report(CLOSED, failing={"u_unitary"})
    rep["overall"] = "PASS"
    assert len(check.check_report(CLOSED, rep)) == 2


def test_raised_run_is_rejected(tmp_path):
    inv, _ = write_run(tmp_path, rep=report(CLOSED))
    assert check.check_run(CLOSED, inv, {"error": "raised ValueError: x", "report": None}, tmp_path)


def test_sweep_table_is_checked(tmp_path):
    path = tmp_path / "sweep_gamma.csv"
    header = "gamma,min_positivity_margin,max_quasi_hermiticity_residual,max_closed_vs_numeric_deviation\n"
    path.write_text(header + "0.5,1.0,1e-12,1e-14\n0.9,0.03,1e-11,1e-13\n")
    assert check.check_sweep(path, [0.9, 0.5]) == []
    assert check.check_sweep(path, [0.9, 0.5, 0.7]) == ["sweep_gamma.csv has 2 rows, expected 3"]
    path.write_text(header + "0.5,1.0,1e-12,1e-14\n0.9,-0.01,1e-11,1e-13\n")
    assert check.check_sweep(path, [0.9, 0.5]) == ["gamma 0.9: metric lost positivity"]
