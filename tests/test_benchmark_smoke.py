"""Smoke test of the benchmark harness (perfbench/run.py) at its tiny size.

The full harness and its own tests live under perfbench/ and run outside
the tier-1 suite; these short runs keep the harness's calls into the
package working: crb_sweep and its keywords (crb-montecarlo), and the
in-process `cli.main` argv forms of small-arrays (`--direction=` tangents,
interferometer JSON files, `qfimatrix` with `--direction`).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_clean(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_crb_montecarlo_benchmark_runs_clean():
    run_clean("crb-montecarlo")


def test_small_arrays_benchmark_runs_clean():
    run_clean("small-arrays")
