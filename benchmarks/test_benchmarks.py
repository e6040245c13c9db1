"""Smoke tests of the benchmark itself (tiny sizes, same code paths).

    python -m pytest benchmarks
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import common  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"),
                           "--seconds", "0.5", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[2] for line in table
               if line.startswith("  ") and "is better)" in line}
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("workload", ["white_small", "calculus"])
def test_gates_pass_on_a_second_seed(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


@pytest.mark.parametrize("workload, gate, broken", [
    ("white_small", "SLOPE_TOL", -1.0),
    ("white_small", "FALSE_ALARM_PER_RUN", 9.0),  # |z| <= 0 over 9 rows
    ("calculus", "REL_TOL", -1.0),
])
def test_broken_check_raises_failed_frac(tmp_path, monkeypatch, workload,
                                         gate, broken):
    monkeypatch.setattr(workloads, gate, broken)
    specs.write_configs(workload, 1, True, tmp_path)
    args = argparse.Namespace(workload=workload, work=tmp_path, smoke=True,
                              seed=1, seconds=0.0, trace=0)
    result = child.work(args)
    assert 0 < result["failed"] <= result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "white_small", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_import_times_parse_cumulative_column():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1200 |     580000 |       scipy.optimize\n"
              "import time:      3000 |     900000 | multreg\n")
    assert common.import_times(stderr) == {
        "import.multreg_s": 0.9, "import.scipy_optimize_s": 0.58}
