"""One timed pass of a workload, in a fresh process.

Run by ``run.py``; not meant to be called by hand.  The pass pays what a
`sunflows verify` user pays on every run: interpreter start, import,
``lru_cache`` fill and first-call costs.  It prints one JSON object on its
last line of standard output:

* ``setup_wall_s``: from the parent's spawn timestamp (CLOCK_MONOTONIC is
  shared by all processes) until ``sunflows`` is imported and every config
  of the workload is loaded and ``validate()``d;
* ``suite_wall_s``: the summed wall time of one
  ``sunflows.cli.main(["verify", ...])`` call per scenario, i.e. config
  validation, the suite and report writing;
* ``setup_s`` and ``suite_s``: the same times at the reference host speed
  (see ``hostspeed.py``), with the relative speeds they were scaled by;
* per scenario: the verify exit code, its wall time, the sha256 of the
  written report.json (the deterministic ``body_dict`` JSON) and each
  check's name, verdict, residual and tolerance;
* ``peak_rss_mb`` and ``cpu_s`` of this process;
* with ``--trace``, the tracer's per-layer metrics (see ``tracer.py``).

With ``--setup-only`` the pass stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed


def _scenario_result(rc: int, outdir: Path, config: dict) -> dict:
    report = outdir / "report.json"
    if not report.exists():
        return {"exit_code": rc, "body_sha256": None, "checks": []}
    raw = report.read_bytes()
    body = json.loads(raw)
    checks = [{"name": c["name"], "passed": bool(c["passed"]),
               "residual": float(c["residual"]), "tol": float(c["tol"])}
              for c in body["checks"]]
    return {"exit_code": rc, "body_sha256": hashlib.sha256(raw).hexdigest(),
            "report_passed": bool(body["passed"]),
            "matches_config": all(body[k] == config[k] for k in ("space", "n", "seed")),
            "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--configs", required=True, help="directory of <k>.json scenario configs")
    ap.add_argument("--out", required=True, help="directory for this pass's reports")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    speed = hostspeed.Sampler()
    speed.start()
    import sunflows
    from sunflows import cli
    from sunflows.scenario import ScenarioConfig

    src = Path(args.src).resolve()
    if src not in Path(sunflows.__file__).resolve().parents:
        raise SystemExit(f"imported sunflows from {sunflows.__file__}, not from {src}")

    config_paths = sorted(Path(args.configs).glob("*.json"), key=lambda p: int(p.stem))
    for path in config_paths:
        ScenarioConfig.from_json(path.read_text()).validate()
    setup_s = time.monotonic() - args.spawned_at
    speed.sample()  # set-up is short: also sample right after it
    setup_speed = speed.relative_speed()
    result = {"setup_wall_s": setup_s, "setup_speed": setup_speed,
              "setup_s": setup_s * setup_speed}
    if args.setup_only:
        speed.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    scenarios = []
    suite_s = 0.0
    first_sample = len(speed.samples)
    for k, path in enumerate(config_paths):
        outdir = Path(args.out) / str(k)
        if tracer is not None:
            tracer.scenario = k
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            try:
                rc = cli.main(["verify", str(path), "--out", str(outdir)])
            except Exception:  # a crashed verify is a failed scenario, not a crashed pass
                print(f"verify crashed on {path.name}:", file=sys.stderr)
                traceback.print_exc()
                rc = -1
        scenario_s = time.perf_counter() - t0
        suite_s += scenario_s
        config = json.loads(path.read_text())
        scenarios.append(dict(_scenario_result(rc, outdir, config), scenario_s=scenario_s))

    speed.stop()
    suite_speed = speed.relative_speed(first_sample)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "suite_wall_s": suite_s,
        "suite_speed": suite_speed,
        "speed_samples": len(speed.samples) - first_sample,
        "suite_s": suite_s * suite_speed,
        "scenarios": scenarios,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    })
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write_spans(Path(args.out) / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
