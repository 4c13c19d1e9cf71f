"""Smoke test of the benchmark harness (perfbench/run.py) at its tiny size.

The full harness and its own tests live under perfbench/ and run outside
the tier-1 suite; this one short crb-montecarlo run keeps the harness's
calls into the package (crb_sweep and its keywords) working.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_crb_montecarlo_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "crb-montecarlo",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
