"""Smoke test of the benchmark harness at tiny sizes, with no timing gate.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one round at 64x64 with a handful of maps, untraced and
traced; its outputs must pass every check and it must print exactly the
metrics BENCHMARK.json lists.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

# Tiny populations make the program warn (constant columns, tied strategies).
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
sys.path.insert(0, run.SRC)


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return dataclasses.replace(
        w, size=64, n_iid=run.EM_KS, n_ood=run.EM_KS, chunk=min(w.chunk, 3),
        bootstrap=10, fit_repeats=1, eval_repeats=1)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_units())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload(name, trace, tmp_path):
    result = run.run(tiny(name), seed=7, seconds=0, trace=trace, work=str(tmp_path / "w"))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if trace:
        doc = json.load(open(tmp_path / f"trace-{name}.json", encoding="utf-8"))
        assert doc["spans"] and "cli.aggregate" in doc["summary"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rows-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
