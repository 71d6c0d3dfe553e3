"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the root of a dysonflow checkout:

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 --label "some commit" --out FILE.json

For each workload (all of them unless ``--workload`` is given) it runs
run.py once per seed, then reports every printed metric's median,
quartiles and spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. With
``--trace`` the runs are traced and the metrics are the per-layer ones.
``perfbench/baseline.json`` and ``perfbench/baseline_trace.json`` were
written this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for name in args.workload or list(workloads.WORKLOADS):
        per_metric, failed, elapsed = {}, [], []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                capture_output=True, text=True, check=False,
            )
            elapsed.append(time.monotonic() - t0)
            if proc.returncode != 0:
                failed.append({"seed": seed, "stderr": proc.stderr[-2000:]})
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failed.append({"seed": seed, "result": result})
            record = json.loads((Path.cwd() / workloads.OUT_ROOT / name / "result.json").read_text())
            for row in record["table"]:  # every printed metric; the JSON line's are among them
                metric = row["name"].split(" (")[0]
                per_metric.setdefault(metric, {"unit": row["unit"], "values": []})["values"].append(row["value"])
            print(f"{name} seed {seed} ({elapsed[-1]:.1f} s): " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary["machine"] = record["machine"]
        summary["workloads"][name] = {
            "failed": failed,
            "invocation_wall_s": elapsed,
            "metrics": {
                k: dict(summarise(v["values"]), unit=v["unit"]) for k, v in per_metric.items()
                if len(v["values"]) >= 2
            },
        }
        for k, m in summary["workloads"][name]["metrics"].items():
            print(f"  {name:<18} {k:<20} median {m['median']:.6g} {m['unit']}  spread {m['spread']:.4f}")
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
