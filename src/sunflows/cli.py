"""Command-line entry points: verify, flow and report.

``verify`` runs the configured check suite and writes report.json plus
report.txt to the output directory; the exit code is zero exactly when all
checks pass.  ``flow`` exports the configured trajectories as CSV files.
``report`` re-renders a stored JSON report.  The output directory defaults
to the SUNFLOWS_OUTPUT_DIR environment variable, then to the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import SunflowsError
from .scenario import (
    ScenarioConfig,
    VerificationReport,
    emit_report,
    export_stems,
    export_trajectory,
    run_scenario,
)


def _load_config(path: str, args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(Path(path).read_text())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.n is not None:
        cfg.n = args.n
    if args.tol_scale is not None:
        cfg.tol_scale = args.tol_scale
    cfg.validate()
    return cfg


def _outdir(args) -> Path:
    out = args.out or os.environ.get("SUNFLOWS_OUTPUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_common(p):
    p.add_argument("config", help="path to a scenario config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the root seed")
    p.add_argument("--n", type=int, default=None, help="override the group size")
    p.add_argument("--tol-scale", type=float, default=None, dest="tol_scale",
                   help="scale every check tolerance")
    p.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sunflows",
        description="verification scenarios for integrable flows on doubles of SU(n)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a check suite and write reports")
    _add_common(p_verify)

    p_flow = sub.add_parser("flow", help="export configured trajectories as CSV")
    _add_common(p_flow)

    p_report = sub.add_parser("report", help="render a stored report")
    p_report.add_argument("report", help="path to a report.json file")
    p_report.add_argument("--format", choices=("json", "text"), default="text")

    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            cfg = _load_config(args.config, args)
            report = run_scenario(cfg)
            outdir = _outdir(args)
            (outdir / "report.json").write_text(emit_report(report, "json") + "\n")
            (outdir / "report.txt").write_text(emit_report(report, "text"))
            sys.stdout.write(emit_report(report, "text", include_timing=True))
            return 0 if report.passed else 1
        if args.command == "flow":
            cfg = _load_config(args.config, args)
            outdir = _outdir(args)
            requests = cfg.flow_exports or [{"name": "flow"}]
            for stem, request in zip(export_stems(requests), requests):
                csv_text = export_trajectory(cfg, request)
                path = outdir / f"{stem}.csv"
                path.write_text(csv_text)
                print(path)
            return 0
        if args.command == "report":
            report = VerificationReport.from_body_dict(json.loads(Path(args.report).read_text()))
            text = emit_report(report, args.format)
            sys.stdout.write(text + "\n" if args.format == "json" else text)
            return 0
    except (SunflowsError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
