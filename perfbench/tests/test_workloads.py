"""Every workload runs clean at a tiny size, traced and untraced, and prints
exactly the metrics BENCHMARK.json names."""
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import Generated, OracleBound, UniformLarge, UniformSmall

TINY = {
    "uniform-1e5": UniformLarge(n=600, files=2),
    "uniform-wide": Generated(ns=(300, 500), k=4, count=1),
    "uniform-small": UniformSmall(ns=(20, 50), k=2, count=20),
    "oracle-bound": OracleBound(cover_base=40, covers=2, cerny_n=30),
}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_tiny_workloads_match_the_spec():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, trace):
    result = run.run(name, seed=1, seconds=0.05, trace=trace, workload=TINY[name])
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
