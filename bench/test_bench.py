"""Smoke tests of the benchmark on tiny instances (n=2, D=2).

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "verify-main": run.Workload("verify-main", n=2, max_degree=2, trials=2),
    "properties": run.Workload("properties", n=2, max_degree=2),
}


def _declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("command", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(command, trace, tmp_path):
    lines = []
    result = run.measure(TINY[command], seed=1, seconds=0, trace=bool(trace),
                         workdir=tmp_path, emit=lines.append)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= run.MIN_RUNS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name


def test_doctored_report_counts_as_failure(tmp_path):
    workload = TINY["verify-main"]
    good = run.run_once(workload, 1, traced=False, workdir=tmp_path)
    assert good.problems == []

    doc = json.loads(good.report)
    doc["trials"][1]["comparisons"][2]["equal"] = False
    assert run.check_report(json.dumps(doc).encode(), workload, 1)

    doc = json.loads(good.report)
    doc["trials"][0]["comparisons"][1]["lhs"] = "1/7"
    assert run.check_report(json.dumps(doc).encode(), workload, 1)

    doc = json.loads(good.report)
    del doc["trials"][0]["comparisons"][-1]
    assert run.check_report(json.dumps(doc).encode(), workload, 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "properties",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
