#!/usr/bin/env python3
"""larvaecast benchmark: one workload per run, checked, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline_cli --seed 1 --seconds 25 --trace 0

Workloads:
  pipeline_cli     the README walkthrough on data/ (--seed 42), six CLI processes
  ingest_scaled    prepare in-process on a generated large observation/station set
  forecast_scaled  forecast, project and report in-process on a generated
                   200-region series set, after capped-epoch training in setup

Each run sets up five times (a fresh-interpreter import of larvaecast.cli
plus input generation, and for forecast_scaled the capped training) and
reports the median as setup_s. It then runs whole rounds of the workload's
stages until --seconds have passed; wall_s is the mean round time and
items_per_s the rows consumed over the total round time. Every round must write byte-identical outputs, and the first
round's outputs are checked against computations in checks.py.

With --trace 1 the run times untraced rounds for half of --seconds, then as
many rounds again with the per-layer trace installed, and prints the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result. The exit code is 0
when every check passed, 1 when a check failed and 2 when the program's
source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
WORK = HERE / "_work"
SETUPS = 5
CHILD_TIMEOUT_S = 170
PIPELINE_SEED = 42  # the README walkthrough's training seed
PROJECTION_YEARS = (2030, 2050)
FORECAST_DENSE_EPOCHS = 5
FORECAST_LSTM_EPOCHS = 2
WORKLOADS = ("pipeline_cli", "ingest_scaled", "forecast_scaled")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports larvaecast.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import larvaecast.cli"], env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def data_rows(*paths: Path) -> int:
    total = 0
    for path in paths:
        with Path(path).open("rb") as handle:
            total += sum(1 for _ in handle) - 1
    return total


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Round:
    wall_s: float
    rows: int
    attempted: int
    failed: int
    digest: str


class Stages:
    """Runs CLI commands in-process or as child processes and times them."""

    def __init__(self, in_process: bool, trace_dir: Path | None = None, tracer=None):
        self.in_process = in_process
        self.trace_dir = trace_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first_start = None
        self.last_end = None
        self.errors: list[str] = []

    def __call__(self, *argv: str) -> int:
        self.attempted += 1
        start = time.perf_counter()
        self.first_start = self.first_start or start
        code = self._in_process(argv) if self.in_process else self._child(argv)
        self.last_end = time.perf_counter()
        if code != 0:
            self.failed += 1
        return code

    def _in_process(self, argv) -> int:
        sink = io.StringIO()
        if self.tracer is not None:
            self.tracer.install()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not the end of the run
                sink.write(traceback.format_exc())
                code = 1
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
        if code != 0:
            self.errors.append(f"{argv[0]} exited {code}: {sink.getvalue()[-500:]}")
        return code

    def _child(self, argv) -> int:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "larvaecast.cli", *argv]
        else:
            trace_file = self.trace_dir / f"trace-{self.attempted}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), "--", *argv]
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if self.tracer is not None and trace_file.exists():
            self.tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            self.errors.append(f"{argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-500:]}")
        return proc.returncode

    @property
    def wall_s(self) -> float:
        return self.last_end - self.first_start


# -- workloads ---------------------------------------------------------------


class PipelineCli:
    """README walkthrough on the bundled data, one CLI process per stage."""

    name = "pipeline_cli"
    in_process = False

    def setup(self, work: Path, seed: int) -> dict:
        del seed  # inputs are the bundled data and the README's training seed
        data = work / "data"
        shutil.copytree(DATA, data)
        return {"data": data, "work": work}

    def round(self, ctx: dict, label: str, stages: Stages) -> tuple[Path, list[Path]]:
        data, out = ctx["data"], ctx["work"] / label
        o = ("--out-dir", str(out))
        stages("prepare", *o, "--observations", str(data / "observations.csv"),
               "--stations", str(data / "stations.csv"))
        stages("train-abundance", *o, "--seed", str(PIPELINE_SEED))
        stages("train-climate", *o, "--seed", str(PIPELINE_SEED), "--series", str(data / "series.csv"))
        stages("forecast", *o, "--series", str(data / "series.csv"), "--target-year", "2050")
        stages("project", *o, "--regions", str(data / "regions.csv"),
               *(a for y in PROJECTION_YEARS for a in ("--year", str(y))))
        stages("report", *o, "--start-year", str(PROJECTION_YEARS[0]),
               "--end-year", str(PROJECTION_YEARS[1]))
        return out, sorted(out.iterdir()) if out.exists() else []

    def rows(self, ctx: dict, out: Path) -> int:
        data = ctx["data"]
        return (data_rows(data / "observations.csv", data / "stations.csv")
                + 2 * data_rows(out / "features.csv", data / "series.csv")
                + data_rows(out / "forecast.csv", data / "regions.csv", out / "projections.csv"))

    def check(self, ctx: dict, out: Path) -> None:
        data = ctx["data"]
        checks.check_prepare(out, checks.derive_ingest(data / "observations.csv",
                                                       data / "stations.csv"))
        checks.check_training_r(out)
        checks.check_forecast(out, data / "series.csv")
        checks.check_projection(out, data / "regions.csv", PROJECTION_YEARS)


class IngestScaled:
    """prepare on a generated set of 4,500 observations and 1,200 station-months."""

    name = "ingest_scaled"
    in_process = True
    size = None  # gen.INGEST_SCALED unless a test shrinks it

    def setup(self, work: Path, seed: int) -> dict:
        plan = gen.ingest_inputs(work / "inputs", seed, self.size or gen.INGEST_SCALED)
        return {"plan": plan, "work": work}

    def round(self, ctx: dict, label: str, stages: Stages) -> tuple[Path, list[Path]]:
        plan, out = ctx["plan"], ctx["work"] / label
        stages("prepare", "--out-dir", str(out), "--observations", str(plan.observations),
               "--stations", str(plan.stations))
        return out, sorted(out.iterdir()) if out.exists() else []

    def rows(self, ctx: dict, out: Path) -> int:
        return data_rows(ctx["plan"].observations, ctx["plan"].stations)

    def check(self, ctx: dict, out: Path) -> None:
        checks.check_prepare(out, ctx["plan"])


class ForecastScaled:
    """forecast, project and report for 200 generated regions."""

    name = "forecast_scaled"
    in_process = True
    regions = None  # gen.SERIES_SCALED_REGIONS unless a test shrinks it

    def setup(self, work: Path, seed: int) -> dict:
        plan = gen.ingest_inputs(work / "inputs", seed, gen.INGEST_TRAINING)
        series = gen.series_inputs(work / "inputs", seed, self.regions or gen.SERIES_SCALED_REGIONS)
        out = work / "out"
        o = ("--out-dir", str(out))
        stages = Stages(in_process=True)
        stages("prepare", *o, "--observations", str(plan.observations),
               "--stations", str(plan.stations))
        stages("train-abundance", *o, "--seed", str(seed),
               "--max-epochs", str(FORECAST_DENSE_EPOCHS))
        stages("train-climate", *o, "--seed", str(seed), "--series", str(series.series),
               "--max-epochs", str(FORECAST_LSTM_EPOCHS))
        if stages.failed:
            raise RuntimeError("forecast_scaled setup failed: " + "; ".join(stages.errors))
        return {"plan": plan, "series": series, "out": out}

    def round(self, ctx: dict, label: str, stages: Stages) -> tuple[Path, list[Path]]:
        del label  # every round rewrites the same outputs from the same models
        out, series = ctx["out"], ctx["series"]
        o = ("--out-dir", str(out))
        stages("forecast", *o, "--series", str(series.series), "--target-year", "2050")
        stages("project", *o, "--regions", str(series.regions),
               *(a for y in PROJECTION_YEARS for a in ("--year", str(y))))
        stages("report", *o, "--start-year", str(PROJECTION_YEARS[0]),
               "--end-year", str(PROJECTION_YEARS[1]))
        return out, [out / n for n in ("forecast.csv", "projections.csv",
                                        "percent_change.csv", "choropleth.csv")]

    def rows(self, ctx: dict, out: Path) -> int:
        series = ctx["series"]
        return data_rows(series.series, out / "forecast.csv", series.regions,
                         out / "projections.csv")

    def check(self, ctx: dict, out: Path) -> None:
        checks.check_prepare(out, ctx["plan"])
        checks.check_forecast(out, ctx["series"].series)
        checks.check_projection(out, ctx["series"].regions, PROJECTION_YEARS)


def make_workload(name: str):
    return {"pipeline_cli": PipelineCli, "ingest_scaled": IngestScaled,
            "forecast_scaled": ForecastScaled}[name]()


# -- running -----------------------------------------------------------------


@dataclass
class Outcome:
    rounds: list[Round]
    errors: list[str]
    first_out: Path


def run_rounds(workload, ctx: dict, label: str, seconds: float, count: int | None = None,
               tracer=None, trace_dir: Path | None = None) -> Outcome:
    """Whole rounds until ``seconds`` have passed (at least one), or exactly
    ``count``. Only the first round's own output directory is kept."""
    rounds, errors, first_out = [], [], None
    start = time.perf_counter()
    while not (len(rounds) >= count if count else rounds and time.perf_counter() - start >= seconds):
        stages = Stages(workload.in_process, trace_dir, tracer)
        out, files = workload.round(ctx, f"{label}{len(rounds)}", stages)
        ok = not stages.failed
        rounds.append(Round(stages.wall_s, workload.rows(ctx, out) if ok else 0,
                            stages.attempted, stages.failed, digest(files) if ok else ""))
        errors.extend(stages.errors)
        if first_out is None:
            first_out = out
        elif out != first_out:
            shutil.rmtree(out, ignore_errors=True)
    return Outcome(rounds, errors, first_out)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def verify(workload, ctx: dict, outcomes: list[Outcome]) -> list[str]:
    """Problems found: failed stages, differing reruns, failed checks."""
    problems = [e for o in outcomes for e in o.errors]
    digests = {r.digest for o in outcomes for r in o.rounds if not r.failed}
    if len(digests) > 1:
        problems.append(f"reruns wrote {len(digests)} different output sets")
    try:
        workload.check(ctx, outcomes[0].first_out)
    except checks.CheckFailed as exc:
        problems.append(f"check failed: {exc}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"check could not read outputs: {exc!r}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path = WORK, workload=None) -> tuple[dict, list[str]]:
    workload = workload or make_workload(name)
    work = work_root / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, imports = [], []
        for k in range(SETUPS):
            imports.append(fresh_import_s())
            start = time.perf_counter()
            ctx = workload.setup(work / f"setup{k}", seed)
            setups.append(imports[-1] + time.perf_counter() - start)

        if not trace:
            outcome = run_rounds(workload, ctx, "round", seconds)
            rss = peak_rss_mb(workload.in_process)
            outcomes = [outcome]
            walls = [r.wall_s for r in outcome.rounds]
            print("perfbench: round wall_s " + " ".join(f"{w:.4f}" for w in walls)
                  + " setup_s " + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.fmean(walls), "s"),
                "items_per_s": (sum(r.rows for r in outcome.rounds) / sum(walls), "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            plain = run_rounds(workload, ctx, "plain", seconds / 2)
            tracer = layers.Tracer()
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced = run_rounds(workload, ctx, "traced", 0, count=len(plain.rounds),
                                tracer=tracer, trace_dir=trace_dir)
            outcomes = [plain, traced]
            overhead = (statistics.median(r.wall_s for r in traced.rounds)
                        - statistics.median(r.wall_s for r in plain.rounds))
            artifact_bytes = sum(p.stat().st_size for p in traced.first_out.glob("*.json"))
            metrics = layers.layer_metrics(tracer, len(traced.rounds), statistics.median(imports),
                                           overhead, artifact_bytes)
        problems = verify(workload, ctx, outcomes)
        result = {
            "correct": not problems,
            "attempted": sum(r.attempted for o in outcomes for r in o.rounds),
            "failed": sum(r.failed for o in outcomes for r in o.rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, problems = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if not (SRC / "larvaecast" / "cli.py").is_file():
    print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

from larvaecast import cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
