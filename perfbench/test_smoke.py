"""Smoke test of the benchmark at tiny problem sizes (a few seconds a run).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must pass its correctness gate and emit exactly the metrics
that BENCHMARK.json names, each with its unit, in both modes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "linear-large", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
