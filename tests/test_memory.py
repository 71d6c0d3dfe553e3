"""Peak memory of runs, measured in a fresh interpreter.

Every scenario runs in chunks of cli.CHUNK_STEPS steps, so the peak RSS
of a ``verify`` must not grow with the window. Each run is measured by
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


def peak_rss_mb(config, tmp_path):
    """Exit code and peak RSS (MB) of ``dysonflow verify`` on ``config``, in a child process."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code = (
        "import resource, sys\n"
        "from dysonflow import cli\n"
        f"status = cli.main(['verify', {str(cfg_path)!r}])\n"
        "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, file=sys.stderr)\n"
    )
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", launcher, sys.executable, "-c", code]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    status, peak = done.stderr.split()[-2:]
    return int(status), float(peak)


@pytest.mark.parametrize("scenario", ["yang-lee-numeric", "yang-lee-closed"])
def test_verify_peak_memory_is_flat_in_the_window(scenario, tmp_path):
    # 4 and 16 chunks of the verify: 32,000 and 128,000 steps
    peaks = []
    for chunks in (4, 16):
        steps = chunks * cli.CHUNK_STEPS
        config = {"scenario": scenario, "t_start": 0.0, "t_end": steps * 1e-3, "dt": 1e-3}
        status, peak = peak_rss_mb(config, tmp_path)
        assert status == 0
        peaks.append(peak)
    # one more series of the long window, 8 bytes a step, would add 1 MB
    assert abs(peaks[1] - peaks[0]) < 3.0, peaks


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
    status, peak = peak_rss_mb({"scenario": scenario, "gamma": gamma}, tmp_path)
    assert status == 0
    assert peak < bound_mb
