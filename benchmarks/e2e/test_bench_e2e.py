"""Checks of the benchmark itself.  Not in Tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -m slow

(``PYTHONPATH`` only because ``benchmarks/conftest.py`` imports ``repro``.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import definition  # noqa: E402

pytestmark = pytest.mark.slow


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_committed_definition_is_valid_and_current():
    done = _run("--check", str(REPO / "BENCHMARK.json"))
    assert done.returncode == 0, done.stdout


def test_check_rejects_a_broken_definition(tmp_path):
    doc = definition.benchmark_json()
    doc["end_to_end"][0]["bound"] = 0.5
    broken = tmp_path / "BENCHMARK.json"
    broken.write_text(json.dumps(doc))
    assert any("bound" in p for p in definition.check(broken))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(definition.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--smoke", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = definition.PER_LAYER if trace else definition.END_TO_END
    assert set(result["metrics"]) == {m.name for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_small_kb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
