"""BENCHMARK.json must name exactly what the benchmark measures."""

import json
from pathlib import Path

import run
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_end_to_end_metrics_match_the_json_line():
    assert tuple(m["name"] for m in BENCHMARK["end_to_end"]) == run.DECLARED


def test_per_layer_metrics_match_the_trace():
    names = set(tracer.Tracer().layer_metrics()) | {"trace.overhead_frac", "accuracy.worst_ratio"}
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared)) and set(declared) == names
    assert all(m["unit"] == tracer.unit(m["name"]) for m in BENCHMARK["per_layer"])
