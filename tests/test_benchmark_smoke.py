"""Smoke test of the benchmark harness (perfbench/run.py) at its tiny size.

The full harness and its own tests live under perfbench/ and run outside
the tier-1 suite; these short runs keep the harness's calls into the
package working: crb_sweep and its keywords (crb-montecarlo), the
in-process `cli.main` argv forms of small-arrays (`--direction=` tangents,
interferometer JSON files, `qfimatrix` with `--direction`), and the names
the traced run binds (wide-aperture with `--trace 1`: SYNTH_STEP_FRACTION,
natural_displacement_scale, SaturationReport.delta_theta and
SynthesisResult.pivoted).  A traced run also checks that tracing leaves
every result unchanged; crb-montecarlo runs traced as well, so that check
covers the Monte-Carlo sweep's path through fisher._applied.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_clean(workload: str, trace: int = 0) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_crb_montecarlo_benchmark_runs_clean():
    run_clean("crb-montecarlo")


def test_crb_montecarlo_traced_benchmark_runs_clean():
    run_clean("crb-montecarlo", trace=1)


def test_small_arrays_benchmark_runs_clean():
    run_clean("small-arrays")


def test_wide_aperture_traced_benchmark_runs_clean():
    run_clean("wide-aperture", trace=1)
