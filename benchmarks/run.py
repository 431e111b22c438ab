"""Benchmark of `sunflows verify` on desk-scale workloads.

    python3 benchmarks/run.py --workload heisenberg-n3 --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads are defined in
``workloads.py`` and listed in ``BENCHMARK.json``; each is a list of scenario
configs whose seed is ``--seed``.  README.md explains the metrics.

Untraced (``--trace 0``): a few set-up-only processes, then timed passes,
each in a fresh process (``one_pass.py``), until ``--seconds`` have passed.
Every pass of a run uses the same seed, so every pass must write the same
report bodies.  Prints the end-to-end metrics of BENCHMARK.json, with times
as medians over processes, scaled to the reference host speed
(``hostspeed.py``).

Traced (``--trace 1``): pairs of one untraced and one traced pass.  The
traced pass wraps the package's functions (``tracer.py``) and gives the
per-layer metrics of BENCHMARK.json; the report bodies of the two passes must
be identical, and ``trace.overhead_share`` is their relative ``suite_s``
difference.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` where
``attempted`` and ``failed`` count the workload's checks and those of them
that failed or aborted.  Every timed pass must give the same verdicts, so the
counts depend on the seed only, not on how many passes fit in the run.  The full
result (environment header, every pass, every traced counter) is written to
``.bench_build/benchmarks/<workload>-seed<seed>-trace<0|1>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, scenario_configs  # noqa: E402

SETUP_ONLY_RUNS = 5
# a run never starts a pass that could end after this many seconds
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the load is one process with no extra threads
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn_pass(configs: Path, out: Path, src: Path, env: dict, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--configs", str(configs),
           "--out", str(out), "--src", str(src)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at), *flags],
                          env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass process failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _environment(root: Path, seed: int, env: dict) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": _tree_hash(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {v: env.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _tree_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_summary(p: dict) -> dict:
    """Checks, verdicts and margins of one pass, plus verdict consistency."""
    run = failed = 0
    consistent = True
    margins = []
    for scen in p["scenarios"]:
        checks = scen["checks"]
        if scen["body_sha256"] is None:  # verify wrote no report: one failed run
            run += 1
            failed += 1
            continue
        run += len(checks)
        failed += sum(not c["passed"] for c in checks)
        all_passed = all(c["passed"] for c in checks)
        consistent &= scen["matches_config"]
        consistent &= scen["report_passed"] == all_passed
        consistent &= (scen["exit_code"] == 0) == all_passed
        for c in checks:
            consistent &= c["passed"] == (c["residual"] <= c["tol"])
            if c["tol"] > 0 and 0 < c["residual"]:
                margins.append(c["tol"] / c["residual"])
    return {"run": run, "failed": failed, "consistent": consistent,
            "margin_min": min(margins) if margins else float("inf"),
            "margin_decades": statistics.fmean(map(math.log10, margins)) if margins else 0.0}


def _hashes(p: dict) -> list:
    return [s["body_sha256"] for s in p["scenarios"]]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    run_start = time.monotonic()
    src = root / "src"
    if not (src / "sunflows" / "__init__.py").is_file():
        raise BenchError(f"no sunflows package under {src}")
    work = root / ".bench_build" / "benchmarks" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    configs = work / "configs"
    configs.mkdir(parents=True)
    for k, cfg in enumerate(scenario_configs(workload, seed)):
        (configs / f"{k}.json").write_text(json.dumps(cfg, sort_keys=True))

    # build: byte-compile the package once, as an installed copy would be
    if not compileall.compile_dir(str(src), quiet=1):
        raise BenchError("byte-compiling src/ failed")
    env = _child_env(src)
    header = _environment(root, seed, env)

    setups = [_spawn_pass(configs, work / "setup", src, env, "--setup-only")
              for _ in range(SETUP_ONLY_RUNS)]
    measure_start = time.monotonic()
    plain, traced = [], []
    while True:
        k = len(plain)
        t_pass = time.monotonic()
        plain.append(_spawn_pass(configs, work / f"pass{k}", src, env))
        if trace:
            traced.append(_spawn_pass(configs, work / f"traced{k}", src, env, "--trace"))
        now = time.monotonic()
        if now - measure_start >= seconds or now - run_start + (now - t_pass) > RUN_BUDGET_S:
            break

    summary = _check_summary(plain[0])
    reference = _hashes(plain[0])
    # every pass of the run, traced or not, must write the same bodies and verdicts
    correct = summary["consistent"] and all(
        _hashes(p) == reference and _check_summary(p) == summary for p in plain + traced)

    median = statistics.median
    end_to_end = {
        "setup_s": median([p["setup_s"] for p in setups + plain]),
        "suite_s": median([p["suite_s"] for p in plain]),
        "margin_decades": summary["margin_decades"],
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    per_layer = {}
    if trace:
        per_layer = {key: median([t["trace"][key] for t in traced]) for key in traced[0]["trace"]}
        per_layer.update({
            "trace.overhead_share": median(
                [t["suite_s"] / p["suite_s"] - 1.0 for p, t in zip(plain, traced)]),
            "scenario.checks_run": summary["run"],
            "scenario.checks_failed_share": summary["failed"] / summary["run"],
            "scenario.margin_min": summary["margin_min"],
            "process.cpu_s": median([p["cpu_s"] for p in plain]),
            "process.setup_wall_s": median([p["setup_wall_s"] for p in setups + plain]),
            "process.suite_wall_s": median([p["suite_wall_s"] for p in plain]),
            "process.host_speed": median([p["suite_speed"] for p in plain]),
        })

    return {
        "environment": header,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": bool(correct),
        "attempted": summary["run"],
        "failed": summary["failed"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "body_sha256": reference,
        "setup_passes": setups,
        "plain_passes": plain,
        "traced_passes": traced,
        "work_dir": str(work),
    }


def _select(values: dict, spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = _select(result[kind], spec[kind])
    except (BenchError, KeyError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    out = Path(result["work_dir"]) / "result.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    suites = [round(p["suite_s"], 3) for p in result["plain_passes"]]
    print(f"# {args.workload} seed={args.seed} suite_s per pass={suites} full result: {out}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
