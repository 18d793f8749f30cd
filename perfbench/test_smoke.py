"""Smoke test of the benchmark itself.

Runs every workload at tiny size, untraced and traced, and checks that the
result line carries every metric BENCHMARK.json names, with its unit, and
that every output check passed.  Run from the repository root:

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    cmd = [
        sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Outside a pesvlab checkout the benchmark exits non-zero, printing no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_runs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
