"""Child process: one user invocation of the dysonflow CLI, driven over stdin.

Run from the root of a dysonflow checkout:

    python3 perfbench/child.py INVOCATION.json [--setup-only] [--trace SPANS.npz]

It imports ``dysonflow`` from ``./src``, validates the config with
``cli.load_config`` and prints ``ready``; with ``--setup-only`` it exits
there. Each ``run`` line on stdin then runs the invocation's verb once
(``run_scenario`` or ``sweep``) and prints one JSON line with its wall and
CPU time and the report; ``trace`` does the same with the tracer installed.
``stop`` prints the peak RSS, versions and the per-layer metrics of every
traced run, writes the spans, and exits. Anything the program itself prints
goes to stderr, so stdout carries only these lines.
"""

import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def reference_kernel(reps=25_000):
    """Time of a fixed pure-Python loop (about 2.5 ms) that does not touch dysonflow."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(reps):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel every ``interval`` seconds while a run executes.

    The kernel runs on a background thread, between the program's own
    bytecodes; being pure Python it never gives up the GIL half way, so its
    times track how fast the shared machine is during the run itself. One
    sample is also taken just before and just after the run. The probe costs
    the run about 1 %.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self.stop.wait(self.interval):
            self.samples.append(reference_kernel())

    def __enter__(self):
        self.samples.append(reference_kernel())
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()
        self.samples.append(reference_kernel())


def run_once(cli, invocation, cfg):
    verb = invocation["verb"]
    error = report = None
    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if verb == "sweep":
                cli.sweep(cfg, invocation["sweep"]["param"], invocation["sweep"]["values"])
            else:
                report, _ = cli.run_scenario(cfg, write_files=(verb == "run"))
        except cli.ConfigInvalid as exc:
            error = f"config error (exit 2): {exc}"
        except Exception as exc:  # a raise is a failed run, reported to the parent
            error = f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": probe.samples,
        "error": error,
        "report": None if report is None else report.to_dict(),
    }


def main(argv):
    invocation_path, flags = argv[0], argv[1:]
    trace_path = flags[flags.index("--trace") + 1] if "--trace" in flags else None
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    sys.path.insert(0, str(Path.cwd() / "src"))
    invocation = json.loads(Path(invocation_path).read_text(encoding="utf-8"))
    config_path = Path(invocation_path).with_name("config.json")
    tracer = None
    from dysonflow import cli

    if trace_path is not None:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = cli.load_config(config_path)
    print("ready", file=proto)
    if "--setup-only" in flags:
        return 0

    layers = []
    if tracer is not None:
        tracer.uninstall()
        load_config_s = tracer.layer_metrics()["cli.load_config.busy_s"]
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        traced = command == "trace"
        if traced:
            tracer.emit_bytes = tracer.emit_rows = 0
            lo = tracer.mark()
            tracer.install()
        result = run_once(cli, invocation, cfg)
        if traced:
            tracer.uninstall()
            layer = tracer.layer_metrics(lo)
            layer["cli.load_config.busy_s"] = load_config_s
            layers.append(layer)
        print(json.dumps(result), file=proto)

    final = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "layers": layers,
    }
    if tracer is not None:
        tracer.save(trace_path)
    print(json.dumps(final), file=proto)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
