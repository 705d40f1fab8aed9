"""Properties of the CLI: whatever bytes an input file or an artifact a stage
reads holds, ``cli.main`` returns one of the documented exit codes and, on
failure, writes one JSON error object; the order of an input file's rows
changes no byte of any artifact; and ``project`` reads whatever ``forecast``
writes."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from larvaecast import cli
from larvaecast.pipeline import (
    CHOROPLETH_CSV,
    FEATURES_CSV,
    FORECAST_CSV,
    FORECAST_VARIABLES,
    INGEST_REPORT_JSON,
    PERCENT_CHANGE_CSV,
    PROJECTIONS_CSV,
)

DATA = Path(__file__).resolve().parents[1] / "data"

HEADERS = {
    "observations": b"location_id,latitude,longitude,date,water_source,larvae_count\n",
    "stations": b"station_id,latitude,longitude,month,tmean_c,tmax_c,tmin_c,"
                b"precip_days,precip_mm,elevation_m\n",
    "regions": b"region_id,elevation_m\n",
    "series": b"region_id,variable,year,value\n",
    "features": b"location_id,date,month,tmean_c,tmax_c,tmin_c,"
                b"precip_days,precip_mm,elevation_m,larvae_count\n",
    "forecast": b"region_id,variable,year,value\n",
    "projections": b"region_id,year,log10_abundance,abundance,tmean_c,tmax_c,tmin_c,"
                   b"precip_days,precip_mm,elevation_m\n",
}

# The stage that reads each file, run on its own copy of the pipeline
# run's artifacts; an input file is passed in place of the bundled one.
READERS = {
    "series": ["forecast", "--series", "{file}"],
    "features": ["train-abundance", "--seed", "1", "--max-epochs", "1"],
    "forecast": ["project", "--regions", "{regions}", "--year", "2030"],
    "projections": ["report", "--start-year", "2030", "--end-year", "2050"],
}


def contents(name):
    """Arbitrary bytes, or a valid header followed by arbitrary bytes."""
    tail = st.binary(max_size=200)
    return st.one_of(tail, tail.map(lambda b: HEADERS[name] + b))


def run_cli(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@pytest.fixture(scope="module")
def project_dir(pipeline_run, work):
    """A copy of the pipeline run's artifacts that project may overwrite."""
    return shutil.copytree(pipeline_run.out_dir, work / "run")


@pytest.mark.parametrize("name", ["observations", "stations"])
@given(data=st.data())
def test_prepare_any_bytes(synth_data, work, name, data):
    fuzzed = work / f"{name}.csv"
    fuzzed.write_bytes(data.draw(contents(name)))
    inputs = {"observations": synth_data["observations"], "stations": synth_data["stations"]}
    inputs[name] = fuzzed
    run_cli(["prepare", "--out-dir", str(work / "prepare"),
             "--observations", str(inputs["observations"]),
             "--stations", str(inputs["stations"])])


@given(content=contents("regions"))
def test_project_any_regions_bytes(project_dir, work, content):
    regions = work / "regions.csv"
    regions.write_bytes(content)
    run_cli(["project", "--out-dir", str(project_dir), "--regions", str(regions)])


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_stage_any_bytes(pipeline_run, work, name, data):
    out = work / f"run-{name}"
    if not out.exists():
        shutil.copytree(pipeline_run.out_dir, out)
    fuzzed = work / f"{name}.csv" if name == "series" else out / f"{name}.csv"
    fuzzed.write_bytes(data.draw(contents(name)))
    argv = [arg.format(file=fuzzed, regions=pipeline_run.data["regions"])
            for arg in READERS[name]]
    run_cli([argv[0], "--out-dir", str(out), *argv[1:]])


def write_rows(source, path, order) -> Path:
    """``source`` with its data rows put in ``order`` (a function of the list
    of rows), written to ``path``."""
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *order(rows)]) + "\n", encoding="utf-8")
    return path


def prepare_outputs(out, observations, stations) -> dict[str, bytes]:
    assert run_cli(["prepare", "--out-dir", str(out), "--observations", str(observations),
                    "--stations", str(stations)]) == 0
    return {name: (out / name).read_bytes() for name in (FEATURES_CSV, INGEST_REPORT_JSON)}


@pytest.fixture(scope="module")
def prepared(work):
    """prepare's artifacts on the bundled inputs, rows as given."""
    return prepare_outputs(work / "prepare-data", DATA / "observations.csv",
                           DATA / "stations.csv")


# A failing order of 900 rows is reported as drawn: shrinking it takes minutes
# and leaves it no easier to read.
@settings(max_examples=15, phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_prepare_ignores_row_order(work, prepared, data):
    permuted = [write_rows(DATA / f"{name}.csv", work / f"permuted-{name}.csv",
                           lambda rows: data.draw(st.permutations(rows), label=name))
                for name in ("observations", "stations")]
    assert prepare_outputs(work / "prepare-permuted", *permuted) == prepared


def scaled(row: str, factor: float) -> str:
    key, value = row.rsplit(",", 1)
    return f"{key},{float(value) * factor!r}"


LARGEST_SERIES_VALUE = max(abs(float(row.rsplit(",", 1)[1])) for row in
                           (DATA / "series.csv").read_text(encoding="utf-8").splitlines()[1:])


@given(factor=st.floats(min_value=1.0, max_value=1e308 / LARGEST_SERIES_VALUE))
def test_forecast_project_report_on_huge_series(pipeline_run, work, factor):
    """The pipeline run's models on series.csv scaled by up to 1e308: each of
    forecast, project and report exits 0 with only warnings on stderr, or 3
    with one JSON error object and nothing else."""
    out = work / "huge"
    if not out.exists():
        shutil.copytree(pipeline_run.out_dir, out)
    series = write_rows(DATA / "series.csv", work / "huge-series.csv",
                        lambda rows: [scaled(row, factor) for row in rows])
    for argv in (["forecast", "--series", str(series)],
                 ["project", "--regions", str(pipeline_run.data["regions"]),
                  "--year", "2030", "--year", "2050"],
                 ["report", "--start-year", "2030", "--end-year", "2050"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "--out-dir", str(out), *argv[1:]])
        lines = err.getvalue().splitlines()
        if code:
            assert code == 3 and len(lines) == 1, (code, lines)
            assert set(json.loads(lines[0])) == {"error", "message"}
            break
        assert all(line.startswith("warning: ") for line in lines), lines


def test_forecast_project_report_ignore_row_order(pipeline_run, work):
    """The pipeline run's models, with series.csv and regions.csv as given and
    with their rows reversed: every table the three stages write is the same."""
    written = {}
    for order in ("given", "reversed"):
        out = shutil.copytree(pipeline_run.out_dir, work / f"rows-{order}")
        series, regions = (
            write_rows(pipeline_run.data[name], work / f"{order}-{name}.csv",
                       (lambda rows: rows) if order == "given" else reversed)
            for name in ("series", "regions"))
        for argv in (["forecast", "--series", str(series)],
                     ["project", "--regions", str(regions), "--year", "2030", "--year", "2050"],
                     ["report", "--start-year", "2030", "--end-year", "2050"]):
            assert run_cli([argv[0], "--out-dir", str(out), *argv[1:]]) == 0
        written[order] = {name: (out / name).read_bytes() for name in
                          (FORECAST_CSV, PROJECTIONS_CSV, PERCENT_CHANGE_CSV, CHOROPLETH_CSV)}
    assert written["reversed"] == written["given"]


# Every (region, variable) series of the bundled series.csv.
SERIES = sorted({tuple(row.split(",")[:2]) for row in
                 (DATA / "series.csv").read_text(encoding="utf-8").splitlines()[1:]})
# Up to three series cut: drop all of its rows, or keep its newest or oldest k years.
CUTS = st.dictionaries(st.sampled_from(SERIES),
                       st.tuples(st.sampled_from(["all", "newest", "oldest"]), st.integers(1, 42)),
                       max_size=3)


def cut_rows(rows, cuts, dropped):
    """The rows of a series.csv less every row of the variable ``dropped``
    (None for none) and less what each cut ``{series: (how, k)}`` removes."""
    years: dict = {}
    for row in rows:
        region, variable, year, _ = row.split(",")
        years.setdefault((region, variable), []).append(int(year))
    kept = {series: {"all": [], "newest": sorted(years[series])[-k:],
                     "oldest": sorted(years[series])[:k]}[how]
            for series, (how, k) in cuts.items()}
    for row in rows:
        region, variable, year, _ = row.split(",")
        if variable != dropped and int(year) in kept.get((region, variable), [int(year)]):
            yield row


# Always tried: no summer_precip rows, a region with no summer_precip series,
# and a region whose forecast series are all shorter than the 20-year window.
@settings(max_examples=25, phases=[Phase.explicit, Phase.generate])
@example(cuts={}, dropped="summer_precip")
@example(cuts={("lake-plain", "summer_precip"): ("all", 1)}, dropped=None)
@example(cuts={("piedmont", variable): ("newest", 15) for variable in FORECAST_VARIABLES},
         dropped=None)
@given(cuts=CUTS, dropped=st.one_of(st.none(), st.sampled_from(FORECAST_VARIABLES)))
def test_project_reads_whatever_forecast_writes(pipeline_run, work, cuts, dropped):
    """The pipeline run's models on series.csv with up to three series cut
    and perhaps one forecast variable dropped: forecast exits 3 with one
    JSON error and leaves the out-dir as it was, or project exits 0 on
    what it wrote."""
    out = work / "cut"
    if not out.exists():
        shutil.copytree(pipeline_run.out_dir, out)
    series = write_rows(pipeline_run.data["series"], work / "cut-series.csv",
                        lambda rows: list(cut_rows(rows, cuts, dropped)))
    before = {path: path.read_bytes() for path in sorted(out.iterdir())}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["forecast", "--out-dir", str(out), "--series", str(series),
                         "--target-year", "2050"])
    if code:
        lines = err.getvalue().splitlines()
        assert code == 3 and len(lines) == 1, (code, lines)
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert {path: path.read_bytes() for path in sorted(out.iterdir())} == before
        return
    assert run_cli(["project", "--out-dir", str(out), "--regions",
                    str(pipeline_run.data["regions"]), "--year", "2030", "--year", "2050"]) == 0
