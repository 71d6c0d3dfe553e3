"""dysonflow benchmark: one seeded workload, measured from outside the program.

Run from the root of a dysonflow checkout:

    python3 perfbench/run.py --workload closed-emit --seed 1 --seconds 20 --trace 0

The seed becomes a config file (see workloads.py). A child process
(child.py) imports dysonflow from ./src, validates that config and runs the
workload's CLI verb again and again, one run after the other (closed loop,
one client), until ``--seconds`` have passed. numpy/BLAS/OpenMP use one
thread. After every run the outputs are checked (check.py). Set-up time is
taken over several fresh child processes.

With ``--trace 0`` the metrics are end to end; with ``--trace 1`` runs
alternate untraced and traced, and the metrics are per layer, measured by
tracer.py. The output is a table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every result, with the machine
record, is also written to .perfbench_out/<workload>/result.json.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # setup-only children, on top of the measuring child
MIN_RUNS = 2  # runs per invocation however long they take; with --trace 1, one of each kind
DEADLINE_S = 170.0  # a run is abandoned (and counted failed) past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The end-to-end metrics BENCHMARK.json declares; the JSON line carries exactly these.
# Raw wall and CPU times drift by 20-40 % with the load on the shared machine,
# so the declared run time is normalised by a reference kernel (child.py).
DECLARED = ("setup_s", "run_norm.p50", "peak_rss_mb", "checks_passed_frac")


class Child:
    """A child.py process and its line protocol."""

    def __init__(self, args, env, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.buf = b""

    def readline(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("child did not answer before the deadline")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EOFError(f"child exited with code {self.proc.wait()}")
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()

    def send(self, command):
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def machine_record(env, child_final):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": child_final.get("python"),
        "numpy": child_final.get("numpy"),
        "threads": {v: env[v] for v in THREAD_VARS},
    }


def tail(values):
    """(label, value): the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is given instead, labelled as such.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return f"max of {len(ordered)}", ordered[-1]
    return f"p{100 * k // len(ordered)}", ordered[k - 1]


def measure(args, root):
    workload = workloads.WORKLOADS[args.workload]
    invocation = workloads.generate(args.workload, args.seed)
    work_dir = root / workloads.OUT_ROOT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    invocation_path = work_dir / "invocation.json"
    invocation_path.write_text(workloads.dumps(invocation), encoding="utf-8")
    (work_dir / "config.json").write_text(workloads.dumps(invocation["config"]), encoding="utf-8")
    out_dir = root / invocation["config"]["out_path"]

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    deadline = time.monotonic() + DEADLINE_S
    rel_invocation = str(invocation_path.relative_to(root))

    setup = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = Child([rel_invocation, "--setup-only"], env, deadline)
        try:
            if probe.readline() == "ready":
                setup.append(time.perf_counter() - t0)
        finally:
            probe.close()

    child_args = [rel_invocation]
    if args.trace:
        child_args += ["--trace", str(work_dir / "trace_spans.npz")]
    runs, problems, final = [], [], {}
    t0 = time.perf_counter()
    child = Child(child_args, env, deadline)
    try:
        if child.readline() != "ready":
            raise EOFError("child did not get ready")
        setup.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            shutil.rmtree(out_dir, ignore_errors=True)
            child.send("trace" if traced else "run")
            result = json.loads(child.readline())
            result["traced"] = traced
            result["problems"] = check.check_run(workload, invocation, result, root)
            runs.append(result)
            problems += result["problems"]
            if len(runs) >= MIN_RUNS and time.perf_counter() - start >= args.seconds:
                break
        child.send("stop")
        final = json.loads(child.readline())
    except (EOFError, TimeoutError, BrokenPipeError, ValueError) as exc:
        problems.append(f"child failed: {exc}")
        if child.proc.poll() is None:
            child.proc.kill()
    finally:
        child.close()
    return workload, invocation, env, setup, runs, problems, final


def end_to_end(invocation, setup, runs, final):
    plain = [r for r in runs if not r["traced"]]
    good = [r for r in plain if not r["problems"]] or plain
    wall = [r["wall_s"] for r in good]
    # each run's reference time: the mean reference-kernel time during that run
    ref = {id(r): statistics.mean(r["probe_s"]) for r in good}
    failed_checks = attempted_checks = 0
    for r in plain:
        f, a = check.check_counts(r["report"])
        failed_checks += f
        attempted_checks += a
    failed_frac = failed_checks / attempted_checks if attempted_checks else 0.0
    p50 = statistics.median(wall)
    label, tail_s = tail(wall)
    n = len(wall)
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("run_norm.p50", statistics.median(r["wall_s"] / ref[id(r)] for r in good), "ref", n),
        ("run_s.p50", p50, "s", n),
        (f"run_s.tail ({label})", tail_s, "s", n),
        ("run_cpu_s.p50", statistics.median(r["cpu_s"] for r in good), "s", n),
        ("samples_per_s", invocation["samples"] / p50, "1/s", n),
        ("peak_rss_mb", final["peak_rss_mb"], "MB", 1),
        ("checks_passed_frac", 1.0 - failed_frac, "ratio", attempted_checks),
        ("checks_failed_frac", failed_frac, "ratio", attempted_checks),
        ("runs_failed_frac", sum(bool(r["problems"]) for r in runs) / len(runs), "ratio", len(runs)),
        ("ref_s", statistics.median(ref.values()), "s", len(ref)),
    ]
    metrics = {name: {"value": v, "unit": unit} for name, v, unit, _ in rows if name in DECLARED}
    return metrics, rows


def per_layer(runs, final):
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    traced = [r["wall_s"] for r in runs if r["traced"]]
    layers = final["layers"]
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    untraced = statistics.median(plain)
    values["trace.overhead_frac"] = (statistics.median(traced) - untraced) / untraced
    values["accuracy.worst_ratio"] = max(check.worst_ratio(r["report"]) for r in runs)
    metrics = {name: {"value": v, "unit": tracer.unit(name)} for name, v in values.items()}
    rows = [(name, m["value"], m["unit"], len(layers)) for name, m in metrics.items()]
    return metrics, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dysonflow" / "cli.py").is_file():
        print("error: run from the root of a dysonflow checkout (no src/dysonflow/cli.py here)", file=sys.stderr)
        return 2

    workload, invocation, env, setup, runs, problems, final = measure(args, root)
    if not runs or not setup or "peak_rss_mb" not in final or (args.trace and not final["layers"]):
        print(f"error: no complete run of {args.workload}: {problems}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, rows = per_layer(runs, final)
    else:
        metrics, rows = end_to_end(invocation, setup, runs, final)
    failed = sum(bool(r["problems"]) for r in runs)
    machine = machine_record(env, final)

    print(f"workload  {workload.name} (seed {args.seed}, {len(runs)} runs, closed loop, 1 client)")
    print(f"why       {workload.why}")
    print("machine   " + json.dumps(machine, sort_keys=True))
    for problem in problems:
        print(f"PROBLEM   {problem}")
    for name, value, unit, n in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={n}")
    summary = {"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics}
    table = [{"name": name, "value": value, "unit": unit, "n": n} for name, value, unit, n in rows]
    record = dict(summary, workload=workload.name, seed=args.seed, trace=args.trace, machine=machine,
                  invocation=invocation, table=table, runs=runs, setup_s=setup)
    (root / workloads.OUT_ROOT / workload.name / "result.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
