"""Fast test of the benchmark itself: python3 -m pytest -q benchmarks

Runs the few-second ``tiny`` workload (double n=2, two checks) untraced and
traced, through the same command line as every other workload.  Checks that
every metric of BENCHMARK.json is printed and that every layer the tiny run
reaches counts calls, so that a rename under ``src/`` that unhooks a wrapper
shows up here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS  # noqa: E402

# calls the tiny run must make, one or more per layer it reaches
REACHED = [
    "cli.main.calls",
    "liecore.build_root_datum.calls",
    "harness.sample.calls",
    "harness.draws",
    "spaces.FusionSpace.random_point.calls",
    "decomp.alcove_diagonalize.calls",
    "linalg.expm.calls",
    "linalg.schur.calls",
    "observables.evals",
    "observables.grad.calls",
    "brackets.fusion_gradient_tables.calls",
    "brackets.directional_derivative.calls",
    "flows.double_flow.calls",
]


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", "tiny",
           "--seed", "42", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    return result


def test_benchmark_json_lists_the_defined_workloads():
    assert SPEC["workloads"] == [{"name": k, "why": w["why"]} for k, w in WORKLOADS.items()]


def test_untraced_prints_every_end_to_end_metric():
    metrics = _result(_bench("--trace", "0"))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_run_reaches_every_hooked_layer():
    proc = _bench("--trace", "1")
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    full = json.loads((ROOT / ".bench_build/benchmarks/tiny-seed42-trace1/result.json").read_text())
    layers = full["per_layer"]
    for name in REACHED:
        assert layers[name] > 0, name
    assert layers["scenario.check.flow-bracket.s"] > 0
    assert layers["scenario.check.dual-basis.s"] > 0
    assert layers["scenario.check.gradient-oracles.s"] == 0
    # wrappers never change results: traced and untraced bodies agree
    plain, traced = full["plain_passes"][0], full["traced_passes"][0]
    assert [s["body_sha256"] for s in plain["scenarios"]] == \
        [s["body_sha256"] for s in traced["scenarios"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
