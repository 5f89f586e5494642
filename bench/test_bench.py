"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest bench``. The traced
runs take about a minute in all.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(root: pathlib.Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _counts(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count/round", "ratio")}


@pytest.mark.parametrize("workload", ["classify_dense", "dicke_scan", "identity_trials"])
def test_layer_counts_repeat_across_runs(workload):
    first = _counts(_run(ROOT, workload, 11, 1))
    second = _counts(_run(ROOT, workload, 11, 1))
    assert first == second
    assert first["linalg.rank_exact.calls"] > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "classify_dense", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
