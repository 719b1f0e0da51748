"""Quick tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_quick.py -q

Each workload runs once untraced and once traced with ``--quick``; every
metric BENCHMARK.json names must be printed with its unit.  The benchmark
must also refuse to run, without a result, where ``src/scmest`` is missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, quick=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0.5", "--trace", str(trace)] + (["--quick"] if quick else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(HERE.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0, quick=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
