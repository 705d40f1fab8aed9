"""Command-line entry point.

Commands mirror the pipeline stages: prepare, train-abundance,
train-climate, forecast, project, report. Training commands require an
explicit --seed; all stages write into --out-dir. Exit codes: 0 success,
2 configuration error (a bad or missing argument included), 3 data error
(a floating-point overflow, invalid value or division by zero included),
``OSError`` or ``MemoryError``, 4 internal invariant violation; every
error is one JSON object on stderr.

Every flag sets the ``PipelineConfig`` field named by its ``dest``, and
an omitted flag takes that field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the products here are small, and on
# a few cores a threaded OpenBLAS stalls some of them (a (64, 64) @ (64, 400)
# product: 0.06 ms on one thread, up to ~16 ms on two). The results are the
# same bits either way; a value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import pipeline  # noqa: E402
from .errors import ConfigError, DataError, PipelineError
from .pipeline import PipelineConfig

_DEFAULTS = {field.name: field.default for field in dataclasses.fields(PipelineConfig)}


def _option(parser: argparse.ArgumentParser, flag: str, help: str = "", **kwargs) -> None:
    """Add ``flag``; unless required, its default is the config field's."""
    dest = kwargs.setdefault("dest", flag[2:].replace("-", "_"))
    if not kwargs.get("required"):
        kwargs["default"] = _DEFAULTS[dest]
        if kwargs["default"] is not None:
            help = f"{help} (default: %(default)s)".lstrip()
    parser.add_argument(flag, help=help, **kwargs)


class _Parser(argparse.ArgumentParser):
    """A parser whose argument errors are ConfigErrors, reported like any other."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="larvaecast",
        description="Project regional mosquito larvae abundance from "
                    "recursive climate forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(command: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=help)
        _option(p, "--out-dir", "directory for pipeline artifacts", type=Path, required=True)
        return p

    p = stage("prepare", "clean observations and build features.csv")
    _option(p, "--observations", type=Path, required=True)
    _option(p, "--stations", type=Path, required=True)
    _option(p, "--max-km", "maximum observation-to-station distance in km", type=float)

    p = stage("train-abundance", "train the larvae-count regressor")
    _option(p, "--seed", type=int, required=True)
    _option(p, "--holdout-oldest", type=int)
    _option(p, "--max-epochs", type=int)
    _option(p, "--learning-rate", type=float)
    _option(p, "--batch-size", type=int)

    p = stage("train-climate", "train the climate forecasters")
    _option(p, "--seed", type=int, required=True)
    _option(p, "--series", type=Path, required=True)
    _option(p, "--max-epochs", type=int, dest="climate_max_epochs")
    _option(p, "--lookback", type=int)
    _option(p, "--horizon", type=int)
    _option(p, "--hidden-size", type=int, dest="lstm_hidden_size")

    p = stage("forecast", "recursive climate forecast per region")
    _option(p, "--series", type=Path, required=True)
    _option(p, "--target-year", type=int)

    p = stage("project", "project larvae abundance for target years")
    _option(p, "--regions", "CSV of region_id,elevation_m", type=Path, required=True)
    _option(p, "--year", f"projection year, repeatable (default: {_DEFAULTS['target_year']})",
            type=int, action="append", dest="years")

    p = stage("report", "percent-change table and choropleth data")
    _option(p, "--start-year", type=int, required=True)
    _option(p, "--end-year", type=int, required=True)
    _option(p, "--geometry", "optional GeoJSON whose features carry region ids", type=Path)
    _option(p, "--geometry-out", "(default: choropleth.geojson in --out-dir)", type=Path)
    _option(p, "--region-key", "feature property holding the region id")
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{k: v for k, v in vars(args).items() if k != "command"})


def run(args: argparse.Namespace) -> dict:
    """Run the command's stage, ``pipeline.cmd_<command>`` looked up at call
    time (so a wrapper installed there runs); a floating-point error in it is
    a DataError."""
    stage = getattr(pipeline, "cmd_" + args.command.replace("-", "_"))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return stage(config_from_args(args))
    except FloatingPointError as exc:
        raise DataError(f"{args.command}: floating-point {exc}") from None


def main(argv=None) -> int:
    try:
        summary = run(build_parser().parse_args(argv))
    except (PipelineError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy raises a private subclass; Python's has no text
            name, message = "MemoryError", str(exc) or "out of memory"
        else:
            name, message = type(exc).__name__, str(exc)
        json.dump({"error": name, "message": message}, sys.stderr)
        sys.stderr.write("\n")
        return getattr(exc, "exit_code", DataError.exit_code)
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
