"""Property: whatever bytes an input file or an artifact a stage reads holds,
``cli.main`` returns one of the documented exit codes and, on failure,
writes one JSON error object."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from larvaecast import cli

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
