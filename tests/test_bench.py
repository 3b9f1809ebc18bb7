"""The benchmark harness still runs against the package: every workload,
one second each, checks its outputs against the references and ends with
``"correct": true``.  This catches, in the tier-1 suite rather than in a
benchmark run, a rename or removal of a name the harness reads, such as
``cosmopoly.hstar.theta_hstar`` for the references."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_harness_runs_every_workload(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
