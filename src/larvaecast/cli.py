"""Command-line entry point.

Commands mirror the pipeline stages: prepare, train-abundance,
train-climate, forecast, project, report. Training commands require an
explicit --seed; all stages write into --out-dir. Exit codes: 0 success,
2 configuration error, 3 data error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .errors import PipelineError
from .pipeline import PipelineConfig


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, required=True,
                        help="directory for pipeline artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="larvaecast",
        description="Project regional mosquito larvae abundance from "
                    "recursive climate forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean observations and build features.csv")
    _add_common(p)
    p.add_argument("--observations", type=Path, required=True)
    p.add_argument("--stations", type=Path, required=True)
    p.add_argument("--max-km", type=float, default=pipeline.ingest.DEFAULT_MAX_STATION_KM,
                   help="maximum observation-to-station distance (default 30 miles)")

    p = sub.add_parser("train-abundance", help="train the larvae-count regressor")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--holdout-oldest", type=int, default=35)
    p.add_argument("--max-epochs", type=int, default=5000)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=8)

    p = sub.add_parser("train-climate", help="train the climate forecasters")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--series", type=Path, required=True)
    p.add_argument("--max-epochs", type=int, default=1500)
    p.add_argument("--lookback", type=int, default=20)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--hidden-size", type=int, default=32)

    p = sub.add_parser("forecast", help="recursive climate forecast per region")
    _add_common(p)
    p.add_argument("--series", type=Path, required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--target-year", type=int, default=2050)

    p = sub.add_parser("project", help="project larvae abundance for target years")
    _add_common(p)
    p.add_argument("--regions", type=Path, required=True,
                   help="CSV of region_id,elevation_m")
    p.add_argument("--year", type=int, action="append", dest="years",
                   help="projection year (repeatable; default: --target-year)")
    p.add_argument("--target-year", type=int, default=2050)

    p = sub.add_parser("report", help="percent-change table and choropleth data")
    _add_common(p)
    p.add_argument("--start-year", type=int, required=True)
    p.add_argument("--end-year", type=int, required=True)
    p.add_argument("--geometry", type=Path, default=None,
                   help="optional GeoJSON whose features carry region ids")
    p.add_argument("--geometry-out", type=Path, default=None)
    p.add_argument("--region-key", default="region_id")
    return parser


def run(args: argparse.Namespace) -> dict:
    if args.command == "prepare":
        cfg = PipelineConfig(
            out_dir=args.out_dir,
            observations=args.observations,
            stations=args.stations,
            max_km=args.max_km,
        )
        return pipeline.cmd_prepare(cfg)
    if args.command == "train-abundance":
        cfg = PipelineConfig(
            out_dir=args.out_dir,
            seed=args.seed,
            holdout_oldest=args.holdout_oldest,
            max_epochs=args.max_epochs,
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
        )
        return pipeline.cmd_train_abundance(cfg)
    if args.command == "train-climate":
        cfg = PipelineConfig(
            out_dir=args.out_dir,
            seed=args.seed,
            series=args.series,
            lookback=args.lookback,
            horizon=args.horizon,
            lstm_hidden_size=args.hidden_size,
        )
        return pipeline.cmd_train_climate(cfg, lstm_max_epochs=args.max_epochs)
    if args.command == "forecast":
        cfg = PipelineConfig(
            out_dir=args.out_dir,
            series=args.series,
            rounds=args.rounds,
            target_year=args.target_year,
        )
        return pipeline.cmd_forecast(cfg)
    if args.command == "project":
        cfg = PipelineConfig(
            out_dir=args.out_dir,
            regions=args.regions,
            target_year=args.target_year,
        )
        return pipeline.cmd_project(cfg, years=args.years)
    if args.command == "report":
        cfg = PipelineConfig(out_dir=args.out_dir)
        return pipeline.cmd_report(
            cfg,
            start_year=args.start_year,
            end_year=args.end_year,
            geometry=args.geometry,
            geometry_out=args.geometry_out,
            region_key=args.region_key,
        )
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = run(args)
    except PipelineError as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return exc.exit_code
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
