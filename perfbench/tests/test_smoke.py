"""Each workload through the one command, at a tiny duration."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: pathlib.Path, workload: str, trace: int,
         ) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert info["seed"] == 5 and info["problems"] == []
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_without_program_source_it_fails_without_a_result(
        tmp_path: pathlib.Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "sim-churn", 0)
    assert done.returncode != 0
    assert done.stdout == ""
