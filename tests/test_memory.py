"""Peak memory of runs, measured in a fresh interpreter.

Every scenario runs in chunks of cli.CHUNK_STEPS steps, so the peak RSS
of a ``verify`` must not grow with the window, nor that of a ``run``,
whose writer appends each chunk's rows to the open files as the chunk is
done, nor that of the workers it forks. Each run is measured by
ru_maxrss in its own process. Linux carries the peak RSS of the process
that starts a program over into the program's ru_maxrss, so the run is
started by a small launcher interpreter, not by the test process itself,
whose RSS holds whatever the tests before it left.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dysonflow import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_mb(config, tmp_path, verb="verify"):
    """Exit code, peak RSS (MB) and its forked workers' peak RSS (MB) of ``dysonflow <verb>`` on ``config``.

    The run is a child process; the workers' peak is 0 when it forks none.
    """
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = (
        "import resource, sys\n"
        "from dysonflow import cli\n"
        f"status = cli.main([{verb!r}, {str(cfg_path)!r}])\n"
        "peak, workers = (resource.getrusage(who).ru_maxrss / 1024.0 "
        "for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))\n"
        "print(status, peak, workers, file=sys.stderr)\n"
    )
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", launcher, sys.executable, "-c", code]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    status, peak, workers = done.stderr.split()[-3:]
    return int(status), float(peak), float(workers)


@pytest.mark.parametrize("scenario", ["yang-lee-numeric", "yang-lee-closed"])
def test_verify_peak_memory_is_flat_in_the_window(scenario, tmp_path):
    # 4 and 16 chunks of the verify: 32,000 and 128,000 steps
    peaks = []
    for chunks in (4, 16):
        steps = chunks * cli.CHUNK_STEPS
        config = {"scenario": scenario, "t_start": 0.0, "t_end": steps * 1e-3, "dt": 1e-3}
        status, peak, _ = peak_rss_mb(config, tmp_path)
        assert status == 0
        peaks.append(peak)
    # one more series of the long window, 8 bytes a step, would add 1 MB
    assert abs(peaks[1] - peaks[0]) < 3.0, peaks


@pytest.mark.parametrize("scenario", ["yang-lee-numeric", "yang-lee-closed"])
def test_run_peak_memory_is_flat_in_the_window(scenario, tmp_path):
    # 4 and 16 chunks of a run that writes three series; with their columns
    # gathered over the window before they were written, the peak grew by 10
    # to 13 MB between the two, in this process and in its workers alike
    peaks = []
    for chunks in (4, 16):
        steps = chunks * cli.CHUNK_STEPS
        config = {
            "scenario": scenario, "t_start": 0.0, "t_end": steps * 1e-3, "dt": 1e-3,
            "outputs": ["propagator", "states", "invariants"], "out_path": str(tmp_path / "out"),
        }
        status, peak, workers = peak_rss_mb(config, tmp_path, "run")
        assert status == 0
        peaks.append((peak, workers))
    # the bound that holds verify, for this process and for its workers alike
    assert abs(peaks[1][0] - peaks[0][0]) < 3.0, peaks
    assert abs(peaks[1][1] - peaks[0][1]) < 3.0, peaks


@pytest.mark.parametrize(
    "scenario, gamma, bound_mb",
    [
        # two periods at dt 1e-3 are 888,599 steps; held at once they peaked at 855 MB
        ("yang-lee-numeric", 0.9999, 150.0),
        # two periods at dt 1e-3 are 89,081 steps; held at once they peaked at 115 MB
        ("yang-lee-closed", 0.99, 60.0),
    ],
)
def test_default_window_verify_near_the_exceptional_point_stays_below_its_bound(scenario, gamma, bound_mb, tmp_path):
    status, peak, _ = peak_rss_mb({"scenario": scenario, "gamma": gamma}, tmp_path)
    assert status == 0
    assert peak < bound_mb
