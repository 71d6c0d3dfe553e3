import pytest

import run


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == ("p50", 10.0)
    assert run.tail(values[:11]) == ("p9", 1.0)
    assert run.tail(values[:4]) == ("max of 4", 4.0)


def test_end_to_end_normalises_each_run_by_its_own_reference():
    runs = [
        {"wall_s": 4.0, "cpu_s": 3.9, "probe_s": [0.001, 0.002, 0.003], "traced": False, "problems": [], "report": None},
        {"wall_s": 6.0, "cpu_s": 5.8, "probe_s": [0.003, 0.003], "traced": False, "problems": [], "report": None},
    ]
    invocation = {"samples": 100}
    metrics, rows = run.end_to_end(invocation, [0.2, 0.3, 0.25], runs, {"peak_rss_mb": 80.0})
    assert list(metrics) == list(run.DECLARED)
    assert metrics["run_norm.p50"]["value"] == pytest.approx(2000.0)
    assert metrics["setup_s"]["value"] == 0.25
    assert metrics["checks_passed_frac"]["value"] == 1.0
    table = {name: value for name, value, _, _ in rows}
    assert table["run_s.p50"] == 5.0 and table["samples_per_s"] == 20.0
