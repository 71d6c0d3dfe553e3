"""Correctness check of one benchmark run's outputs.

``check_run`` returns a list of problems; an empty list means the run is
correct. A run is wrong when it raised or hit a config error, when its
report drops a check the workload expects or FAILs a check that is not a
known failure, when the overall status disagrees with the checks, or when a
requested file is missing or has the wrong number of rows.
"""

import csv
import json
import math
from pathlib import Path

# Sweep rows hold the same quantities the yang-lee-numeric report checks, so
# they are held to that report's tolerances: htilde_quasi_hermitian (1e-6)
# and the looser of metric_/u_numeric_vs_closed (1e-7).
SWEEP_QH_TOL = 1e-6
SWEEP_DEVIATION_TOL = 1e-7


def check_report(workload, report):
    names = {c["name"] for c in report["checks"]}
    failing = {c["name"] for c in report["checks"] if c["status"] == "FAIL"}
    problems = []
    missing = set(workload.checks) - names
    if missing:
        problems.append(f"report lacks checks {sorted(missing)}")
    unexpected = failing - set(workload.known_failures)
    if unexpected:
        problems.append(f"unexpected FAIL of {sorted(unexpected)}")
    if report["overall"] != ("FAIL" if failing else "PASS"):
        problems.append(f"overall {report['overall']} with failing checks {sorted(failing)}")
    return problems


def _csv_rows(path):
    """Data rows of a CSV series file, or a problem string."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        return f"{path.name} does not end with a newline"
    lines = data.split(b"\n")[:-1]
    width = lines[0].count(b",")
    if lines[-1].count(b",") != width:
        return f"{path.name}: last row has {lines[-1].count(b',') + 1} fields, header {width + 1}"
    return len(lines) - 1


def _json_rows(path):
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return f"{path.name} is not valid JSON: {exc}"
    samples = payload["samples"]
    if samples and set(samples[-1]) != set(payload["columns"]):
        return f"{path.name}: last sample does not have the declared columns"
    return len(samples)


def check_series(path, fmt, expected_rows):
    if not path.is_file():
        return [f"missing output {path.name}"]
    rows = _csv_rows(path) if fmt == "csv" else _json_rows(path)
    if isinstance(rows, str):
        return [rows]
    if rows != expected_rows:
        return [f"{path.name} has {rows} rows, expected {expected_rows}"]
    return []


def check_sweep(path, values):
    if not path.is_file():
        return [f"missing output {path.name}"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(values):
        return [f"{path.name} has {len(rows)} rows, expected {len(values)}"]
    problems = []
    for row, value in zip(rows, sorted(values)):
        nums = {k: float(v) for k, v in row.items()}
        if nums["gamma"] != value or not all(math.isfinite(x) for x in nums.values()):
            problems.append(f"bad sweep row {row}")
        elif nums["min_positivity_margin"] <= 0.0:
            problems.append(f"gamma {value}: metric lost positivity")
        elif nums["max_quasi_hermiticity_residual"] > SWEEP_QH_TOL:
            problems.append(f"gamma {value}: quasi-Hermiticity residual {nums['max_quasi_hermiticity_residual']:.3e}")
        elif nums["max_closed_vs_numeric_deviation"] > SWEEP_DEVIATION_TOL:
            problems.append(f"gamma {value}: deviation {nums['max_closed_vs_numeric_deviation']:.3e}")
    return problems


def check_run(workload, invocation, result, root):
    """Problems with one run of ``invocation``, whose outputs lie under ``root``."""
    if result["error"]:
        return [result["error"]]
    cfg = invocation["config"]
    out = Path(root) / cfg["out_path"]
    fmt = cfg.get("format", "csv")
    if invocation["verb"] == "sweep":
        sweep = invocation["sweep"]
        return check_sweep(out / f"sweep_{sweep['param']}.{fmt}", sweep["values"])
    report = result["report"]
    problems = check_report(workload, report)
    if invocation["verb"] == "verify":
        if out.exists():
            problems.append("verify wrote files")
        return problems
    for name in cfg["outputs"]:
        problems += check_series(out / f"{name}.{fmt}", fmt, invocation["samples"])
    report_path = out / "report.json"
    if not report_path.is_file():
        problems.append("missing report.json")
    elif json.loads(report_path.read_text(encoding="utf-8"))["report"] != report:
        problems.append("report.json differs from the returned report")
    return problems


def check_counts(report):
    """(failed, attempted) report checks; a sweep has no report and counts (0, 0)."""
    if report is None:
        return 0, 0
    return sum(c["status"] == "FAIL" for c in report["checks"]), len(report["checks"])


def worst_ratio(report):
    """Largest value/tolerance over the report's max_le checks (0 without a report)."""
    if report is None:
        return 0.0
    return max((c["value"] / c["tolerance"] for c in report["checks"] if c["mode"] == "max_le"), default=0.0)
