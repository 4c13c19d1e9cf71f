"""The benchmark's own test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest -q perfbench``.  It
asserts that every metric named in BENCHMARK.json is emitted with its
unit, that every check of each workload ran, and that a directory holding
only the benchmark (no ``src/``) makes the benchmark fail without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return lines, result


def _expected_checks(workload: str) -> set[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.WORKLOADS[workload][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric_and_runs_every_check(workload):
    lines, result = _result(_run(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    ran = {}
    for line in lines:
        match = re.fullmatch(r"# check (\w+): failed (\d+) of (\d+)", line)
        if match:
            ran[match[1]] = int(match[3])
    assert set(ran) == _expected_checks(workload)
    assert all(n > 0 for n in ran.values())
    assert any(line.startswith("# failed_frac ") for line in lines)
    assert any(line.startswith("# known_defect_frac ") for line in lines)
    record = json.loads(next(l for l in lines if l.startswith("RUN_RECORD "))[len("RUN_RECORD "):])
    assert record["workload"] == workload and record["seed"] == 3
    assert record["nproc"] >= 1 and record["mpmath_backend"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    # correct is true only if the traced pass reproduced the untraced one.
    _, result = _result(_run(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "tracing_overhead_frac" in result["metrics"]
    assert (HERE / "_out" / f"spans-{workload}-seed3.npz").is_file()


def test_a_known_defect_explains_only_failures_it_covers():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    short, low = "synthesized_cfi_shortfall", "low_information_richardson"
    assert workloads._explained(frozenset({"cfi_synth"}), {"cfi_synth": short}) == short
    assert workloads._explained(frozenset({"cfi_synth", "cfi_le_qfi"}), {"cfi_synth": short}) is None
    assert workloads._explained(frozenset({"converged"}), {"converged": None}) is None
    assert workloads._low_information(1e-9) == low and workloads._low_information(1e-3) is None
    # A CFI above the QFI is no shortfall.
    assert workloads._shortfall(1.0, 0.5) == short
    assert workloads._shortfall(1.0, 1.5) is None and workloads._shortfall(0.0, 0.0) is None
    assert workloads._rank_drop(True, 1.0, False) == "rank_drop_structure"
    assert workloads._rank_drop(False, 1.0, False) is None and workloads._rank_drop(True, 0.5, False) is None


def test_benchmark_json_matches_the_code():
    import run

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_a_result_where_the_program_is_missing():
    bare = HERE / "_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(WORKLOADS[0], trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
