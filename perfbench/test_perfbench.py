"""Self-tests of the benchmark: small passes of every workload with all
their checks, and proof that each check fails on one perturbed value.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the program's src/ on sys.path
import checks
import gen

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def small(name: str):
    workload = run.make_workload(name)
    if name == "ingest_scaled":
        workload.size = gen.INGEST_SMALL
    elif name == "forecast_scaled":
        workload.regions = gen.SERIES_SMALL_REGIONS
    return workload


def one_round(workload, work: Path) -> tuple[dict, Path]:
    ctx = workload.setup(work / "setup", SEED)
    outcome = run.run_rounds(workload, ctx, "round", 0)
    assert outcome.errors == []
    assert len(outcome.rounds) == 1 and outcome.rounds[0].failed == 0
    workload.check(ctx, outcome.first_out)
    return ctx, outcome.first_out


@pytest.fixture(scope="module")
def ingest_pass(tmp_path_factory):
    return one_round(small("ingest_scaled"), tmp_path_factory.mktemp("ingest"))


@pytest.fixture(scope="module")
def forecast_pass(tmp_path_factory):
    return one_round(small("forecast_scaled"), tmp_path_factory.mktemp("forecast"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_pass_reports_every_end_to_end_metric(name, tmp_path):
    result, problems = run.run_workload(name, SEED, 0, False, tmp_path, small(name))
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    result, problems = run.run_workload("ingest_scaled", SEED, 0, True, tmp_path,
                                        small("ingest_scaled"))
    assert problems == []
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    size = gen.INGEST_SMALL
    merged_obs = size.locations * size.obs_per_location + size.remote
    assert result["metrics"]["ingest.haversine_calls"]["value"] == \
        merged_obs * size.lat_rows * size.lon_cols


def test_tracer_restores_the_program():
    from larvaecast import ingest, pipeline

    originals = (pipeline.cmd_prepare, ingest.haversine_km, pipeline.train_lstm)
    tracer = run.layers.Tracer().install()
    assert pipeline.cmd_prepare is not originals[0]
    tracer.uninstall()
    assert (pipeline.cmd_prepare, ingest.haversine_km, pipeline.train_lstm) == originals


def test_derived_ingest_agrees_with_the_planted_facts(tmp_path):
    plan = gen.ingest_inputs(tmp_path, SEED, gen.INGEST_SMALL)
    derived = checks.derive_ingest(plan.observations, plan.stations)
    for name in ("input_rows", "container", "merged", "proximity", "retained"):
        assert getattr(derived, name) == getattr(plan, name)
    assert derived.joined == plan.joined


def test_generators_are_seeded(tmp_path):
    a = gen.series_inputs(tmp_path / "a", SEED, 3)
    b = gen.series_inputs(tmp_path / "b", SEED, 3)
    c = gen.series_inputs(tmp_path / "c", SEED + 1, 3)
    assert a.series.read_bytes() == b.series.read_bytes() != c.series.read_bytes()


def perturb(path: Path, select, column: str, delta: float) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    row = next(r for r in rows if select(r))
    row[column] = repr(float(row[column]) + delta)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_checks_catch_a_perturbed_joined_station_field(ingest_pass, tmp_path):
    ctx, out = ingest_pass
    copy = shutil.copytree(out, tmp_path / "out")
    perturb(copy / "features.csv", lambda r: True, "tmax_c", 0.01)
    with pytest.raises(checks.CheckFailed, match="tmax_c"):
        checks.check_prepare(copy, ctx["plan"])


def test_checks_catch_a_perturbed_ingest_count(ingest_pass, tmp_path):
    ctx, out = ingest_pass
    copy = shutil.copytree(out, tmp_path / "out")
    report = json.loads((copy / "ingest_report.json").read_text())
    report["merged"] += 1
    (copy / "ingest_report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="merged"):
        checks.check_prepare(copy, ctx["plan"])


@pytest.mark.parametrize("variable", ["summer_precip", "summer_tmin", "summer_precip_days"])
def test_checks_catch_a_perturbed_forecast_value(forecast_pass, tmp_path, variable):
    ctx, out = forecast_pass
    copy = shutil.copytree(out, tmp_path / "out")
    perturb(copy / "forecast.csv", lambda r: r["variable"] == variable and r["year"] == "2041",
            "value", 1e-6)
    with pytest.raises(checks.CheckFailed, match=f"{variable}/2041"):
        checks.check_forecast(copy, ctx["series"].series)


@pytest.mark.parametrize("column", ["log10_abundance", "abundance"])
def test_checks_catch_a_perturbed_projection(forecast_pass, tmp_path, column):
    ctx, out = forecast_pass
    copy = shutil.copytree(out, tmp_path / "out")
    perturb(copy / "projections.csv", lambda r: r["year"] == "2050", column, 1e-6)
    with pytest.raises(checks.CheckFailed, match=column):
        checks.check_projection(copy, ctx["series"].regions, run.PROJECTION_YEARS)


def test_checks_catch_a_perturbed_percent_change(forecast_pass, tmp_path):
    ctx, out = forecast_pass
    copy = shutil.copytree(out, tmp_path / "out")
    perturb(copy / "percent_change.csv", lambda r: True, "percent_change", 1e-6)
    with pytest.raises(checks.CheckFailed, match="percent_change.csv"):
        checks.check_projection(copy, ctx["series"].regions, run.PROJECTION_YEARS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_scaled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
