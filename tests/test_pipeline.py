import ast
import csv
import errno
import importlib
import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import larvaecast
from larvaecast import cli, ingest, pipeline, synth
from larvaecast.errors import ConfigError, DataError, DivergenceError, ParseError
from larvaecast.lstm import make_windows, train_lstm
from larvaecast.nn import xavier_init
from larvaecast.pipeline import (
    ABUNDANCE_MODEL_JSON,
    ABUNDANCE_REPORT_JSON,
    ABUNDANCE_SCALERS_JSON,
    CHOROPLETH_CSV,
    CLIMATE_REPORT_JSON,
    DAYS_MODEL_JSON,
    FEATURES_CSV,
    FORECAST_CSV,
    FORECAST_VARIABLES,
    INGEST_REPORT_JSON,
    OFFSETS_JSON,
    PERCENT_CHANGE_CSV,
    PROJECTIONS_CSV,
    PipelineConfig,
    cmd_forecast,
    cmd_prepare,
    cmd_project,
    cmd_report,
    cmd_train_abundance,
    cmd_train_climate,
    lstm_document_name,
    merge_geometry,
    predict_log_abundance,
)
from larvaecast.preprocess import LogCountTransform
from larvaecast.serialize import (
    deserialize_network,
    load_document,
    scalers_from_document,
    serialize_lstm,
    serialize_network,
)
from larvaecast.trend import estimate_k


MODULES = sorted(
    p.stem for p in Path(larvaecast.__file__).parent.glob("*.py") if p.stem != "__init__"
)
# The pipeline's stages, in definition order: `larvaecast <command>` runs `cmd_<command>`.
STAGE_NAMES = [name for name in vars(pipeline) if name.startswith("cmd_")]


@pytest.fixture()
def fixture_cfg(tmp_path):
    paths = synth.write_prepare_fixture(tmp_path / "data")
    return PipelineConfig(
        out_dir=tmp_path / "out",
        observations=paths["observations"],
        stations=paths["stations"],
    )


def read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestPrepare:
    def test_fixture_drop_accounting(self, fixture_cfg):
        report = cmd_prepare(fixture_cfg)
        assert report == {
            "input_rows": 12,
            "container": 2,
            "merged": 1,
            "proximity": 1,
            "retained": 8,
        }
        rows = read_csv(fixture_cfg.path(FEATURES_CSV))
        assert len(rows) == 8
        merged_row = [r for r in rows if r["location_id"] == "site-c"]
        assert len(merged_row) == 1
        assert merged_row[0]["larvae_count"] == "10"

    def test_report_written_and_reconciles(self, fixture_cfg):
        cmd_prepare(fixture_cfg)
        report = json.loads(fixture_cfg.path(INGEST_REPORT_JSON).read_text())
        assert (
            report["retained"]
            + report["container"]
            + report["merged"]
            + report["proximity"]
            == report["input_rows"]
        )

    def test_idempotent_byte_identical(self, fixture_cfg):
        cmd_prepare(fixture_cfg)
        first = fixture_cfg.path(FEATURES_CSV).read_bytes()
        cmd_prepare(fixture_cfg)
        assert fixture_cfg.path(FEATURES_CSV).read_bytes() == first

    def test_all_containers_fatal(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        obs = data / "observations.csv"
        obs.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
            "a,40.0,-100.0,2020-06-01,container,5\n"
            "b,40.0,-100.0,2020-06-02,container,6\n"
        )
        stations = data / "stations.csv"
        stations.write_text(
            "station_id,latitude,longitude,month,tmean_c,tmax_c,tmin_c,"
            "precip_days,precip_mm,elevation_m\n"
            "s1,40.0,-100.0,2020-06,20.0,26.0,14.0,5,30.0,100.0\n"
        )
        cfg = PipelineConfig(out_dir=tmp_path / "out", observations=obs, stations=stations)
        with pytest.raises(DataError, match="container=2"):
            cmd_prepare(cfg)


def test_synth_writes_the_bundled_data(synth_data):
    """``data/`` is what ``python -m larvaecast.synth`` writes, byte for byte."""
    data = Path(__file__).resolve().parents[1] / "data"
    assert sorted(p.name for p in data.iterdir()) == sorted(p.name for p in synth_data.values())
    for name, path in synth_data.items():
        assert path.read_bytes() == (data / path.name).read_bytes(), name


def test_synth_main(tmp_path, capsys):
    """``python -m larvaecast.synth`` takes one argument, the directory it
    writes ``data/``'s files to, byte for byte."""
    assert synth.main([]) == 2
    assert capsys.readouterr().err == "usage: python -m larvaecast.synth OUT_DIR\n"
    assert synth.main([str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    data = Path(__file__).resolve().parents[1] / "data"
    assert file_bytes(tmp_path) == file_bytes(data)


class TestTrainAbundance:
    def test_degenerate_holdout_rejected(self, fixture_cfg):
        cmd_prepare(fixture_cfg)
        fixture_cfg.holdout_oldest = 7  # leaves 1 row, below batch size
        with pytest.raises(ConfigError, match="training set of 1 rows is below the batch size of 8"):
            cmd_train_abundance(fixture_cfg)

    def test_holdout_at_least_dataset_rejected(self, fixture_cfg):
        cmd_prepare(fixture_cfg)
        fixture_cfg.holdout_oldest = 8
        with pytest.raises(ConfigError):
            cmd_train_abundance(fixture_cfg)

    def test_report_carries_the_epochs_run(self, tmp_path, capsys, pipeline_run):
        out = tmp_path / "out"
        shutil.copytree(pipeline_run.out_dir, out)
        assert cli.main(["train-abundance", "--out-dir", str(out), "--seed", "1",
                         "--max-epochs", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["epochs"] == 3
        assert json.loads((out / ABUNDANCE_REPORT_JSON).read_text())["epochs"] == 3


def test_perfect_correlation_is_an_error_entry():
    truth = np.arange(10.0)
    assert pipeline._correlation_entry(3.7 * truth + 1.3, truth) == {
        "error": "t statistic is infinite for a perfect correlation"
    }


class TestPipelineOutputs:
    def test_split_accounting(self, pipeline_run):
        report = pipeline_run.abundance_report
        assert report["n_train"] + report["n_val"] == report["n"]
        assert report["n_val"] == 35

    def test_planted_signal_learned(self, pipeline_run):
        assert pipeline_run.abundance_report["train"]["r"] >= 0.85

    def test_forecast_rows_per_region_variable(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / FORECAST_CSV)
        by_key: dict = {}
        for row in rows:
            by_key.setdefault((row["region_id"], row["variable"]), []).append(row)
        assert len(by_key) == len(synth.REGIONS) * 5
        for (region, variable), entries in by_key.items():
            assert len(entries) == 30, (region, variable)
            years = [int(r["year"]) for r in entries]
            assert years == list(range(2022, 2052))

    def test_derived_min_max_offsets(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / FORECAST_CSV)
        offsets_doc = load_document(pipeline_run.out_dir / "offsets.json", "offsets")
        table = {}
        for row in rows:
            table.setdefault(row["region_id"], {}).setdefault(row["variable"], {})[
                int(row["year"])
            ] = float(row["value"])
        for region, variables in table.items():
            k = offsets_doc["regions"][region]
            for year, tmean in variables["summer_tmean"].items():
                assert variables["summer_tmin"][year] == pytest.approx(
                    tmean - k["k_min"], abs=1e-9
                )
                assert variables["summer_tmax"][year] == pytest.approx(
                    tmean + k["k_max"], abs=1e-9
                )

    def test_projection_transform_contract(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / PROJECTIONS_CSV)
        assert rows, "projections.csv must not be empty"
        for row in rows:
            log_value = float(row["log10_abundance"])
            assert float(row["abundance"]) == pytest.approx(
                10.0**log_value - 1.0, rel=1e-12
            )

    def test_projection_elevation_constant(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / PROJECTIONS_CSV)
        elevations = {r.region_id: r.elevation_m for r in synth.REGIONS}
        for row in rows:
            assert float(row["elevation_m"]) == elevations[row["region_id"]]

    def test_projection_reproduces_training_path(self, pipeline_run):
        net = deserialize_network(
            (pipeline_run.out_dir / ABUNDANCE_MODEL_JSON).read_text()
        )
        scaler, _, log_offset = scalers_from_document(
            (pipeline_run.out_dir / ABUNDANCE_SCALERS_JSON).read_text()
        )
        rows = ingest.parse_features(pipeline_run.out_dir / FEATURES_CSV)
        features = np.array([ingest.feature_values(r) for r in rows[:5]])
        once = predict_log_abundance(net, scaler, features)
        again = predict_log_abundance(net, scaler, features)
        np.testing.assert_array_equal(once, again)
        transform = LogCountTransform(log_offset)
        np.testing.assert_allclose(transform.inverse(once), 10.0**once - 1.0, rtol=1e-12)

    def test_percent_change_table(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / PERCENT_CHANGE_CSV)
        assert len(rows) == len(synth.REGIONS)
        for row in rows:
            v0 = float(row["abundance_2030"])
            v1 = float(row["abundance_2050"])
            if row["percent_change"] != "undefined":
                assert float(row["percent_change"]) == pytest.approx(
                    100.0 * (v1 - v0) / v0, rel=1e-9
                )

    def test_choropleth_columns(self, pipeline_run):
        rows = read_csv(pipeline_run.out_dir / CHOROPLETH_CSV)
        assert set(rows[0]) == {"region_id", "log10_abundance", "abundance"}
        assert len(rows) == len(synth.REGIONS)


class TestPercentChangeMath:
    def test_examples(self, tmp_path, pipeline_run):
        # 200 -> 300 is +50%; equal values are 0%
        cfg = PipelineConfig(out_dir=tmp_path, start_year=2030, end_year=2050)
        line = "{r},{y},2.0,{v},20.0,26.0,14.0,8.0,55.0,100.0\n"
        write_projections(
            tmp_path,
            line.format(r="a", y=2030, v=200.0),
            line.format(r="a", y=2050, v=300.0),
            line.format(r="b", y=2030, v=42.0),
            line.format(r="b", y=2050, v=42.0),
        )
        cmd_report(cfg)
        rows = {r["region_id"]: r for r in read_csv(tmp_path / PERCENT_CHANGE_CSV)}
        assert float(rows["a"]["percent_change"]) == pytest.approx(50.0)
        assert float(rows["b"]["percent_change"]) == pytest.approx(0.0)

    def test_zero_start_flagged(self, tmp_path):
        cfg = PipelineConfig(out_dir=tmp_path, start_year=2030, end_year=2050)
        write_projections(
            tmp_path,
            "a,2030,0.0,0.0,20.0,26.0,14.0,8.0,55.0,100.0\n",
            "a,2050,1.0,9.0,20.0,26.0,14.0,8.0,55.0,100.0\n",
        )
        cmd_report(cfg)
        rows = read_csv(tmp_path / PERCENT_CHANGE_CSV)
        assert rows[0]["percent_change"] == "undefined"


class TestGeometryMerge:
    def test_properties_merged_and_geometry_untouched(self):
        geometry = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"region_id": "west"},
                    "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                }
            ],
        }
        merged, unmatched = merge_geometry(
            geometry, {"west": {"abundance": 9.0}, "east": {"abundance": 1.0}}
        )
        assert merged["features"][0]["properties"]["abundance"] == 9.0
        assert merged["features"][0]["geometry"] == {
            "type": "Point",
            "coordinates": [1.0, 2.0],
        }
        assert unmatched == ["east"]

    def test_geometry_without_features_rejected(self):
        with pytest.raises(DataError):
            merge_geometry({"type": "FeatureCollection"}, {})


class TestCli:
    def test_prepare_and_exit_codes(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        code = cli.main(
            [
                "prepare",
                "--out-dir", str(tmp_path / "out"),
                "--observations", str(paths["observations"]),
                "--stations", str(paths["stations"]),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["retained"] == 8

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "prepare",
                "--out-dir", str(tmp_path / "out"),
                "--observations", str(tmp_path / "nope.csv"),
                "--stations", str(tmp_path / "nope2.csv"),
            ]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"

    def test_bad_holdout_is_config_error(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        out = tmp_path / "out"
        assert cli.main(
            [
                "prepare",
                "--out-dir", str(out),
                "--observations", str(paths["observations"]),
                "--stations", str(paths["stations"]),
            ]
        ) == 0
        code = cli.main(
            [
                "train-abundance",
                "--out-dir", str(out),
                "--seed", "3",
                "--holdout-oldest", "7",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_seed_required_for_training(self, tmp_path, capsys):
        assert cli.main(["train-abundance", "--out-dir", str(tmp_path / "x")]) == 2
        assert_json_error(capsys, "ConfigError", "required: --seed")

    def test_forecast_takes_no_window_flags(self, tmp_path, capsys):
        for flag in ("--lookback", "--horizon", "--rounds"):
            assert cli.main(
                ["forecast", "--out-dir", str(tmp_path), "--series", "s.csv", flag, "12"]
            ) == 2
            assert_json_error(capsys, "ConfigError", f"unrecognized arguments: {flag} 12")

    def test_project_takes_no_target_year(self, tmp_path, capsys, pipeline_run):
        """--year sets the projection years; without it project writes the
        config's target year, 2050."""
        out = shutil.copytree(pipeline_run.out_dir, tmp_path / "out")
        regions = str(pipeline_run.data["regions"])
        argv = ["project", "--out-dir", str(out), "--regions", regions]
        assert cli.main([*argv, "--target-year", "2050"]) == 2
        assert_json_error(capsys, "ConfigError", "unrecognized arguments: --target-year 2050")
        assert cli.main(argv) == 0
        assert {row["year"] for row in read_csv(out / PROJECTIONS_CSV)} == {"2050"}

    def test_readme_walkthrough_parses(self):
        """Every command of the README walkthrough parses into a config; no stage runs."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Pipeline walkthrough", 1)[1].split("```bash\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines]
        assert [argv[:2] for argv in commands] == [
            ["larvaecast", name[4:].replace("_", "-")] for name in STAGE_NAMES]
        parser = cli.build_parser()
        for argv in commands:
            assert isinstance(cli.config_from_args(parser.parse_args(argv[1:])), PipelineConfig)

    def test_train_climate_horizon_beyond_lookback(self, tmp_path, capsys):
        out = tmp_path / "out"
        for flags, message in [
            (["--lookback", "5", "--horizon", "6"], "horizon must not exceed lookback"),
            (["--lookback", "0"], "lookback must be positive: 0"),
            (["--horizon", "0"], "horizon must be positive: 0"),
        ]:
            code = cli.main(
                ["train-climate", "--out-dir", str(out), "--seed", "1",
                 "--series", str(tmp_path / "series.csv"), *flags]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err) == {"error": "ConfigError", "message": message}
            assert "rounds" not in err
            assert not out.exists()

    def test_train_climate_hidden_size_checked_before_any_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["train-climate", "--out-dir", str(out), "--seed", "1",
             "--series", str(tmp_path / "series.csv"), "--hidden-size", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "sizes must be positive: hidden_size=0, output_len=10, lookback=20"}
        assert not out.exists()

    @pytest.mark.parametrize("hidden", [2**29, 10**20])
    def test_train_climate_hidden_size_beyond_numpy_refused(self, tmp_path, capsys, hidden):
        """From about 2**29 the LSTM's float64 parameters exceed numpy's intp
        bytes; the flag is refused before any read, and nothing is allocated."""
        out = tmp_path / "out"
        code = cli.main(
            ["train-climate", "--out-dir", str(out), "--seed", "1",
             "--series", str(tmp_path / "series.csv"), "--hidden-size", str(hidden)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"hidden_size={hidden}, output_len=10: "
                       "too many float64 parameters for numpy",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train-climate", "--max-epochs", "0", "--max-epochs must be >= 1: 0"),
        ("train-abundance", "--batch-size", "0", "--batch-size must be >= 1: 0"),
        ("train-abundance", "--seed", "-1", "--seed must be a non-negative integer: -1"),
        ("train-abundance", "--learning-rate", "-1",
         "--learning-rate must be a positive finite number: -1.0"),
        ("train-abundance", "--holdout-oldest", "0", "--holdout-oldest must be positive: 0"),
    ], ids=["climate-max-epochs", "batch-size", "seed", "learning-rate", "holdout-oldest"])
    def test_training_flags_checked_before_any_read(
        self, tmp_path, capsys, command, flag, value, message
    ):
        """No features.csv or series.csv exists, so any read would fail first."""
        out = tmp_path / "out"
        argv = [command, "--out-dir", str(out), "--seed", "1", flag, value]
        if command == "train-climate":
            argv += ["--series", str(tmp_path / "series.csv")]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    def test_report_equal_years_refused_before_any_read(self, tmp_path, capsys):
        """No projections.csv exists, so any read would fail first. Equal years
        would name one column twice in percent_change.csv."""
        out = tmp_path / "out"
        code = cli.main(["report", "--out-dir", str(out),
                         "--start-year", "2030", "--end-year", "2030"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError", "message": "--start-year and --end-year must differ: 2030"}
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--max-km", "nan"),
        ("prepare", "--max-km", "inf"),
        ("prepare", "--max-km", "0"),
        ("train-abundance", "--learning-rate", "nan"),
    ])
    def test_bad_float_flag_is_config_error(self, tmp_path, capsys, command, flag, value):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        out = tmp_path / "out"
        prepare = ["prepare", "--out-dir", str(out), "--observations",
                   str(paths["observations"]), "--stations", str(paths["stations"])]
        if command == "prepare":
            code = cli.main([*prepare, flag, value])
        else:
            assert cli.main(prepare) == 0
            capsys.readouterr()
            code = cli.main([command, "--out-dir", str(out), "--seed", "1", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "ConfigError"
        assert flag in doc["message"]
        written = FEATURES_CSV if command == "prepare" else ABUNDANCE_MODEL_JSON
        assert not (out / written).exists()

    def test_cli_import_leaves_scipy_unloaded(self):
        src = Path(larvaecast.__file__).resolve().parent.parent
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, larvaecast.cli; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == "False"

    def test_walkthrough_never_imports_numpy_ma(self, tmp_path, synth_data):
        """No stage, nor the LSTM trainer that train-climate forks, imports
        numpy.ma, which costs a training stage about 1.6 MB of peak memory:
        ``-X importtime`` lists every module a process imports."""
        src = Path(larvaecast.__file__).resolve().parent.parent
        stages = [
            ["prepare", "--observations", synth_data["observations"],
             "--stations", synth_data["stations"]],
            ["train-abundance", "--seed", "1", "--max-epochs", "2"],
            ["train-climate", "--seed", "1", "--max-epochs", "2", "--series", synth_data["series"]],
            ["forecast", "--series", synth_data["series"], "--target-year", "2050"],
            ["project", "--regions", synth_data["regions"], "--year", "2030", "--year", "2050"],
            ["report", "--start-year", "2030", "--end-year", "2050"],
        ]
        for command, *flags in stages:
            probe = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "larvaecast.cli", command,
                 "--out-dir", str(tmp_path / "out"), *map(str, flags)],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
            assert probe.returncode == 0, probe.stderr
            imported = [line.rpartition("|")[2].strip() for line in probe.stderr.splitlines()
                        if line.startswith("import time:")]
            assert "numpy" in imported
            assert [name for name in imported
                    if name == "numpy.ma" or name.startswith("numpy.ma.")] == [], command

    def test_package_imports_only_stdlib_and_numpy(self):
        """An ast walk sees the lazy imports inside functions as well."""
        allowed = set(sys.stdlib_module_names) | {"numpy", "larvaecast"}
        package = Path(larvaecast.__file__).resolve().parent
        foreign = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names
                    if name.split(".")[0] not in allowed
                ]
        assert foreign == []

    @staticmethod
    def module_trees():
        package = Path(larvaecast.__file__).resolve().parent
        for path in sorted(package.glob("*.py")):
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))

    def test_only_cli_imports_pipeline(self):
        """The stages sit on top: no module below them reaches back into ``pipeline``."""
        importers = set()
        for module, tree in self.module_trees():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                    names.append(getattr(node, "module", None) or "")
                    if any("pipeline" in name.split(".") for name in names):
                        importers.add(module)
        assert importers == {"cli"}

    def test_only_ingest_reads_csv_tables(self):
        """The table rules have one home: no module but ``ingest`` calls
        ``read_rows`` or ``read_table``, so no other module names a key."""
        callers = set()
        for module, tree in self.module_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in {"read_rows", "read_table"}:
                        callers.add(module)
        assert callers == {"ingest"}

    def test_only_train_climate_skips_a_series(self):
        """Skipping has one home: only ``cmd_train_climate`` calls ``_windowed``,
        and ``cmd_forecast``, which refuses what it cannot roll, warns of nothing."""
        callers = {"_windowed": set(), "_warn": set()}
        for _, tree in self.module_trees():
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    for node in ast.walk(function):
                        name = getattr(getattr(node, "func", None), "id", None)
                        if isinstance(node, ast.Call) and name in callers:
                            callers[name].add(function.name)
        assert callers["_windowed"] == {"cmd_train_climate"}
        assert "cmd_forecast" not in callers["_warn"]

    def test_every_column_table_is_declared_in_ingest(self):
        """The CSV format has one home: every module-level ``*_COLUMNS`` is in ``ingest``."""
        declared = set()
        for module, tree in self.module_trees():
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    declared |= {(module, target.id) for target in node.targets
                                 if getattr(target, "id", "").endswith("_COLUMNS")}
        assert {module for module, _ in declared} == {"ingest"}

    def test_one_opener_for_reading_and_one_for_writing(self):
        """An ast walk: every call that opens a file, by the innermost function
        around it, is ``ingest.open_text`` reading or ``serialize.commit`` writing."""
        package = Path(larvaecast.__file__).resolve().parent
        found = set()

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where.split('.')[0]}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("read_text", "read_bytes"):
                    found.add((where, "read"))
                elif name in ("write_text", "write_bytes"):
                    found.add((where, "write"))
                elif name == "open":
                    position = 1 if isinstance(func, ast.Name) else 0
                    mode = next((k.value for k in node.keywords if k.arg == "mode"),
                                node.args[position] if len(node.args) > position else None)
                    mode = "r" if mode is None else getattr(mode, "value", "unknown")
                    found.add((where, "read" if set(mode) <= set("rbt") else "write"))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(package.rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
        assert found == {("ingest.open_text", "read"), ("serialize.commit", "write")}

    def test_no_config_is_built_only_to_be_discarded(self):
        """An ast walk: no statement builds a ``TrainConfig`` or ``ForecastConfig``
        and drops it; a stage checks a rule by calling the function that states it."""
        package = Path(larvaecast.__file__).resolve().parent
        discarded = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", getattr(node.value.func, "id", None))
            in ("TrainConfig", "ForecastConfig")
        ]
        assert discarded == []

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_cli_import_sets_one_blas_thread_unless_set(self, preset, expected):
        src = Path(larvaecast.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = subprocess.run(
            [sys.executable, "-c",
             "import os, larvaecast.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env={**env, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == expected

    def test_diverging_trainer_writes_one_json_line(self, tmp_path, pipeline_run):
        """A trainer that overflows stops at the first non-finite batch, and
        the JSON error object is all that reaches stderr."""
        src = Path(larvaecast.__file__).resolve().parent.parent
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_run.out_dir / FEATURES_CSV, out / FEATURES_CSV)
        probe = subprocess.run(
            [sys.executable, "-m", "larvaecast.cli", "train-abundance", "--out-dir", str(out),
             "--seed", "1", "--learning-rate", "1e300", "--max-epochs", "3"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert probe.returncode == 3
        assert probe.stderr.count("\n") == 1
        doc = json.loads(probe.stderr)
        assert doc["error"] == "DivergenceError"
        assert doc["message"].endswith("of epoch 1")
        assert not (out / ABUNDANCE_MODEL_JSON).exists()

    class ArrayMemoryError(MemoryError):
        """Like numpy's failed allocation: a private subclass of MemoryError."""

    @pytest.mark.parametrize("exc, message", [
        (ArrayMemoryError("Unable to allocate 1.16 TiB for an array"),
         "Unable to allocate 1.16 TiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_3_with_one_json_line(
        self, tmp_path, capsys, monkeypatch, exc, message
    ):
        def cmd_train_climate(cfg):
            raise exc

        monkeypatch.setattr(pipeline, "cmd_train_climate", cmd_train_climate)
        code = cli.main(["train-climate", "--out-dir", str(tmp_path / "out"), "--seed", "1",
                         "--series", str(tmp_path / "series.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "MemoryError", "message": message}

    def test_floating_point_error_exits_3_with_one_json_line(self, tmp_path, capsys, pipeline_run):
        """Every other first-layer weight at 1e300 overflows 10 ** log10 abundance:
        one JSON DataError naming the stage, and no numpy warning."""
        out = shutil.copytree(pipeline_run.out_dir, tmp_path / "out")
        doc = json.loads((out / ABUNDANCE_MODEL_JSON).read_text())
        first = np.array(doc["weights"][0])
        first.flat[::2] = 1e300
        doc["weights"][0] = first.tolist()
        (out / ABUNDANCE_MODEL_JSON).write_text(json.dumps(doc))
        code = cli.main(["project", "--out-dir", str(out), "--regions",
                         str(pipeline_run.data["regions"]), "--year", "2030", "--year", "2050"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "DataError", "message": "project: floating-point overflow encountered in power"
        }

    @pytest.mark.parametrize("module", MODULES)
    def test_module_imports_alone(self, module):
        """Each module imports first in a fresh interpreter, without warnings,
        so no import cycle hides behind the order of another import."""
        src = Path(larvaecast.__file__).resolve().parent.parent
        probe = subprocess.run(
            [sys.executable, "-W", "error", "-c", f"import larvaecast.{module}"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert probe.returncode == 0, probe.stderr

    def test_package_attribute_is_the_module(self):
        assert larvaecast.forecast is importlib.import_module("larvaecast.forecast")


def assert_json_error(capsys, error, text):
    """The one line on stderr: a JSON ``error`` whose message holds ``text``."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == error
    assert text in doc["message"]
    return doc


def assert_data_error(code, capsys, error, text):
    assert code == 3
    return assert_json_error(capsys, error, text)


def file_bytes(directory) -> dict[str, bytes]:
    """The bytes of every file under ``directory``, temp files included, by
    relative path."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def assert_parse_error(code, capsys, column):
    assert_data_error(code, capsys, "ParseError", column)


PROJECTIONS_HEADER = (
    "region_id,year,log10_abundance,abundance,tmean_c,tmax_c,tmin_c,"
    "precip_days,precip_mm,elevation_m\n"
)


def write_projections(out, *lines):
    out.mkdir(parents=True, exist_ok=True)
    (out / PROJECTIONS_CSV).write_text(PROJECTIONS_HEADER + "".join(lines))


def report(out, *extra):
    return cli.main(
        ["report", "--out-dir", str(out), "--start-year", "2030", "--end-year", "2050", *extra]
    )


class TestCliRejectsBadNumbers:
    def project(self, tmp_path, elevation):
        out = tmp_path / "out"
        out.mkdir()
        (out / FORECAST_CSV).write_text(
            "region_id,variable,year,value\nwest,summer_tmean,2030,21.5\n"
        )
        regions = tmp_path / "regions.csv"
        regions.write_text(f"region_id,elevation_m\nwest,{elevation}\n")
        return cli.main(
            ["project", "--out-dir", str(out), "--regions", str(regions), "--year", "2030"]
        )

    def test_nan_elevation(self, tmp_path, capsys):
        assert_parse_error(self.project(tmp_path, "nan"), capsys, "elevation_m")

    def test_non_numeric_elevation(self, tmp_path, capsys):
        assert_parse_error(self.project(tmp_path, "high"), capsys, "elevation_m")

    def prepare(self, tmp_path, column, value):
        """prepare on the fixture with ``column`` set to ``value`` at every station."""
        paths = synth.write_prepare_fixture(tmp_path / "data")
        header, *rows = paths["stations"].read_text().splitlines()
        index = header.split(",").index(column)
        edited = [header]
        for row in rows:
            fields = row.split(",")
            fields[index] = value
            edited.append(",".join(fields))
        paths["stations"].write_text("\n".join(edited) + "\n")
        return cli.main(
            [
                "prepare",
                "--out-dir", str(tmp_path / "out"),
                "--observations", str(paths["observations"]),
                "--stations", str(paths["stations"]),
            ]
        )

    def test_nan_station_elevation(self, tmp_path, capsys):
        assert_parse_error(self.prepare(tmp_path, "elevation_m", "nan"), capsys, "elevation_m")

    def test_infinite_station_precipitation(self, tmp_path, capsys):
        assert_parse_error(self.prepare(tmp_path, "precip_mm", "inf"), capsys, "precip_mm")

    @pytest.mark.parametrize("month", ["2012-13", "2012"])
    def test_station_month_not_a_year_and_month(self, tmp_path, capsys, month):
        doc = assert_data_error(self.prepare(tmp_path, "month", month), capsys, "ParseError",
                                f"column 'month': cannot parse '{month}'")
        assert doc["message"].startswith(f"{tmp_path / 'data' / 'stations.csv'}: ")
        assert not (tmp_path / "out").exists()

    def test_nan_series_value(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text(
            "region_id,variable,year,value\n"
            "west,summer_tmean,2000,20.5\n"
            "west,summer_tmean,2001,nan\n"
        )
        code = cli.main(
            ["forecast", "--out-dir", str(tmp_path / "out"), "--series", str(series)]
        )
        assert_parse_error(code, capsys, "value")

    def test_nan_feature_elevation(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        out = tmp_path / "out"
        cmd_prepare(PipelineConfig(out_dir=out, observations=paths["observations"],
                                   stations=paths["stations"]))
        rows = read_csv(out / FEATURES_CSV)
        rows[0]["elevation_m"] = "nan"
        with (out / FEATURES_CSV).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code = cli.main(["train-abundance", "--out-dir", str(out), "--seed", "1"])
        assert_parse_error(code, capsys, "elevation_m")

    def prepare_counts(self, tmp_path, counts):
        """prepare on the fixture with the larvae count on each line numbered
        in ``counts`` (the header is line 1) set to its value."""
        paths = synth.write_prepare_fixture(tmp_path / "data")
        lines = paths["observations"].read_text().splitlines()
        for line, count in counts.items():
            lines[line - 1] = f"{lines[line - 1].rsplit(',', 1)[0]},{count}"
        paths["observations"].write_text("\n".join(lines) + "\n")
        return cli.main(
            ["prepare", "--out-dir", str(tmp_path / "out"),
             "--observations", str(paths["observations"]), "--stations", str(paths["stations"])]
        )

    def test_observed_count_beyond_float_range(self, tmp_path, capsys):
        code = self.prepare_counts(tmp_path, {2: 10**400})
        assert_data_error(code, capsys, "ParseError",
                          "row 2: column 'larvae_count': count must be non-negative and "
                          "within float range")
        assert not (tmp_path / "out").exists()

    def test_merged_count_beyond_float_range(self, tmp_path, capsys):
        code = self.prepare_counts(tmp_path, {6: 10**308, 7: 10**308})  # both site-c 2020-06-05
        doc = assert_data_error(code, capsys, "DataError", "'site-c' on 2020-06-05")
        assert "beyond float range" in doc["message"]
        assert not (tmp_path / "out").exists()

    def test_feature_count_beyond_float_range(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        out = tmp_path / "out"
        cmd_prepare(PipelineConfig(out_dir=out, observations=paths["observations"],
                                   stations=paths["stations"]))
        header, first, *rest = (out / FEATURES_CSV).read_text().splitlines()
        first = f"{first.rsplit(',', 1)[0]},{10**400}"
        (out / FEATURES_CSV).write_text("\n".join([header, first, *rest]) + "\n")
        code = cli.main(["train-abundance", "--out-dir", str(out), "--seed", "1"])
        assert_data_error(code, capsys, "ParseError",
                          f"{out / FEATURES_CSV}: row 2: column 'larvae_count': count must be")
        assert not (out / ABUNDANCE_MODEL_JSON).exists()

    def test_non_numeric_projection_year(self, tmp_path, capsys):
        out = tmp_path / "out"
        write_projections(out, "a,20x0,2.0,99.0,20.0,26.0,14.0,8.0,55.0,100.0\n")
        assert_parse_error(report(out), capsys, "year")

    def test_nan_projection_abundance(self, tmp_path, capsys):
        out = tmp_path / "out"
        write_projections(
            out,
            "a,2030,2.0,nan,20.0,26.0,14.0,8.0,55.0,100.0\n",
            "a,2050,2.0,99.0,20.0,26.0,14.0,8.0,55.0,100.0\n",
        )
        assert_parse_error(report(out), capsys, "abundance")

    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_number_in_scalers(self, tmp_path, capsys, pipeline_run, number):
        _, project = keyed_file(tmp_path, pipeline_run, "regions.csv")
        scalers = tmp_path / "out" / ABUNDANCE_SCALERS_JSON
        doc = json.loads(scalers.read_text())
        doc["std"][0] = "number"
        scalers.write_text(json.dumps(doc).replace('"number"', number))
        assert_data_error(project(), capsys, "ParseError", f"non-finite number: {number}")

    def test_wrong_typed_model_field(self, tmp_path, capsys, pipeline_run):
        _, project = keyed_file(tmp_path, pipeline_run, "regions.csv")
        model = tmp_path / "out" / ABUNDANCE_MODEL_JSON
        doc = json.loads(model.read_text())
        doc["dropout_rate"] = [0.2]
        model.write_text(json.dumps(doc))
        assert_data_error(project(), capsys, "ParseError", "'dropout_rate' must be a JSON number")

    def test_zero_scaler_std(self, tmp_path, capsys, pipeline_run):
        _, project = keyed_file(tmp_path, pipeline_run, "regions.csv")
        out = tmp_path / "out"
        (out / PROJECTIONS_CSV).unlink()
        doc = json.loads((out / ABUNDANCE_SCALERS_JSON).read_text())
        doc["std"][0] = 0.0
        (out / ABUNDANCE_SCALERS_JSON).write_text(json.dumps(doc))
        assert_data_error(project(), capsys, "ParseError", "'std'")
        assert not (out / PROJECTIONS_CSV).exists()


class TestCliConfig:
    """Each flag sets one PipelineConfig field; an omitted flag keeps the
    field's default, so the CLI and the library run the same settings."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["prepare", "--observations", "o.csv", "--stations", "s.csv"],
             dict(observations="o.csv", stations="s.csv")),
            (["train-abundance", "--seed", "4"], dict(seed=4)),
            (["train-climate", "--seed", "4", "--series", "x.csv"],
             dict(seed=4, series="x.csv")),
            (["forecast", "--series", "x.csv"], dict(series="x.csv")),
            (["project", "--regions", "r.csv"], dict(regions="r.csv")),
            (["report", "--start-year", "2030", "--end-year", "2050"],
             dict(start_year=2030, end_year=2050)),
        ],
    )
    def test_required_flags_only_match_library_defaults(self, argv, expected):
        args = cli.build_parser().parse_args([argv[0], "--out-dir", "out", *argv[1:]])
        assert cli.config_from_args(args) == PipelineConfig(out_dir="out", **expected)

    def test_climate_epoch_budget(self):
        assert PipelineConfig(out_dir="out").climate_max_epochs == 1500
        args = cli.build_parser().parse_args(
            ["train-climate", "--out-dir", "out", "--seed", "1", "--series", "x.csv",
             "--max-epochs", "7", "--hidden-size", "5"]
        )
        cfg = cli.config_from_args(args)
        assert (cfg.climate_max_epochs, cfg.max_epochs) == (7, 5000)
        assert cfg.lstm_hidden_size == 5

    def test_repeated_years(self):
        args = cli.build_parser().parse_args(
            ["project", "--out-dir", "out", "--regions", "r.csv",
             "--year", "2050", "--year", "2030"]
        )
        assert cli.config_from_args(args).years == [2050, 2030]

    def test_every_stage_takes_only_cfg(self):
        for name in STAGE_NAMES:
            params = inspect.signature(getattr(pipeline, name)).parameters
            assert list(params) == ["cfg"], name


class TestMissingArtifacts:
    def series(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text(
            "region_id,variable,year,value\n"
            + "".join(f"west,summer_tmean,{2000 + i},{20.0 + i % 3}\n" for i in range(30))
        )
        return series

    def test_forecast_before_train_climate(self, tmp_path, capsys):
        code = cli.main(
            ["forecast", "--out-dir", str(tmp_path / "out"),
             "--series", str(self.series(tmp_path))]
        )
        assert_data_error(code, capsys, "DataError", "lstm_summer_tmean.json")

    def test_project_without_abundance_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / FORECAST_CSV).write_text(
            "region_id,variable,year,value\nwest,summer_tmean,2030,21.5\n"
        )
        regions = tmp_path / "regions.csv"
        regions.write_text("region_id,elevation_m\nwest,100.0\n")
        code = cli.main(["project", "--out-dir", str(out), "--regions", str(regions)])
        assert_data_error(code, capsys, "DataError", ABUNDANCE_MODEL_JSON)

    def test_train_climate_reads_features_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["train-climate", "--out-dir", str(out), "--seed", "1",
             "--series", str(self.series(tmp_path))]
        )
        assert_data_error(code, capsys, "DataError", FEATURES_CSV)
        assert not out.exists() or not any(out.iterdir())

    def test_library_stage_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="lstm_summer_tmean.json"):
            cmd_forecast(PipelineConfig(out_dir=tmp_path, series=self.series(tmp_path)))
        with pytest.raises(DataError, match=FEATURES_CSV):
            cmd_train_climate(PipelineConfig(out_dir=tmp_path, series=self.series(tmp_path)))


CLIMATE_SEED = 7


class TestTrainClimateSideBySide:
    """The first variable's LSTM trains in the CLI process, the second in a
    forked child; both documents are written only once both have trained."""

    @staticmethod
    def train_climate(tmp_path, pipeline_run):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_run.out_dir / FEATURES_CSV, out)
        code = cli.main(["train-climate", "--out-dir", str(out), "--seed", str(CLIMATE_SEED),
                         "--series", str(pipeline_run.data["series"]), "--max-epochs", "3"])
        return code, out

    def test_documents_match_serial_training(self, tmp_path, pipeline_run, capsys):
        code, out = self.train_climate(tmp_path, pipeline_run)
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert json.loads((out / CLIMATE_REPORT_JSON).read_text()) == summary
        cfg = PipelineConfig(out_dir=out, seed=CLIMATE_SEED, climate_max_epochs=3)
        series = ingest.parse_series(pipeline_run.data["series"])
        for offset, variable in enumerate(FORECAST_VARIABLES):
            windows = np.concatenate([
                make_windows(s, cfg.lookback + cfg.horizon)
                for s in series[variable].values()
            ])
            model, epochs = train_lstm(
                windows, cfg.train_config(seed_offset=offset, max_epochs=3),
                horizon=cfg.horizon, hidden_size=cfg.lstm_hidden_size,
            )
            document = (out / lstm_document_name(variable)).read_text(encoding="utf-8")
            same = document == serialize_lstm(model)  # no diff of 4,682 numbers
            assert same, f"{variable} differs from its serial training"
            assert summary["epochs"][variable] == epochs == 3
        with pytest.raises(ChildProcessError):  # the child is reaped
            os.waitpid(-1, os.WNOHANG)
        assert not list(out.glob("*.tmp"))

    def test_child_divergence_exits_3_and_writes_no_model(
        self, tmp_path, pipeline_run, capsys, monkeypatch
    ):
        real = pipeline.train_lstm

        def diverge_in_child(windows, cfg, **kwargs):
            if cfg.seed == CLIMATE_SEED + 1:
                raise DivergenceError("LSTM training diverged: mean loss is nan at epoch 1")
            return real(windows, cfg, **kwargs)

        monkeypatch.setattr(pipeline, "train_lstm", diverge_in_child)
        code, out = self.train_climate(tmp_path, pipeline_run)
        assert_data_error(code, capsys, "DivergenceError", "mean loss is nan at epoch 1")
        assert not list(out.glob("lstm_*.json"))

    def test_child_out_of_memory_keeps_numpy_message(
        self, tmp_path, pipeline_run, capsys, monkeypatch
    ):
        """numpy's failed allocation comes back through the pipe with its text."""
        real = pipeline.train_lstm

        def allocate_in_child(windows, cfg, **kwargs):
            if cfg.seed == CLIMATE_SEED + 1:
                np.empty((10**8, 10**8))  # 71 PiB: refused before any page is touched
            return real(windows, cfg, **kwargs)

        monkeypatch.setattr(pipeline, "train_lstm", allocate_in_child)
        code, out = self.train_climate(tmp_path, pipeline_run)
        doc = assert_data_error(code, capsys, "MemoryError", "")
        assert doc["message"].startswith("Unable to allocate")
        assert not list(out.glob("lstm_*.json"))

    def test_parent_failure_leaves_no_child_process(
        self, tmp_path, pipeline_run, capsys, monkeypatch
    ):
        def fail_in_parent(windows, cfg, **kwargs):
            if cfg.seed == CLIMATE_SEED:
                raise DivergenceError("LSTM training diverged: mean loss is inf at epoch 2")
            time.sleep(60)  # the child: only a kill ends it before the test does

        monkeypatch.setattr(pipeline, "train_lstm", fail_in_parent)
        code, _ = self.train_climate(tmp_path, pipeline_run)
        assert_data_error(code, capsys, "DivergenceError", "epoch 2")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exit_without_result(self, tmp_path, pipeline_run, capsys, monkeypatch):
        real = pipeline.train_lstm

        def exit_in_child(windows, cfg, **kwargs):
            if cfg.seed == CLIMATE_SEED + 1:
                os._exit(1)
            return real(windows, cfg, **kwargs)

        monkeypatch.setattr(pipeline, "train_lstm", exit_in_child)
        code, out = self.train_climate(tmp_path, pipeline_run)
        assert_data_error(code, capsys, "ChildProcessError", "'summer_precip'")
        assert not list(out.glob("lstm_*.json"))

    def test_failed_fork_exits_3_and_leaks_no_pipe(
        self, tmp_path, pipeline_run, capsys, monkeypatch
    ):
        """A fork refused for want of processes: the pipe's two ends are
        closed again, and nothing is written."""
        def refuse(*args):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        fds = Path("/proc/self/fd")
        open_fds = (lambda: len(os.listdir(fds))) if fds.is_dir() else (lambda: None)
        before_fds = open_fds()
        monkeypatch.setattr(pipeline.os, "fork", refuse)
        code, out = self.train_climate(tmp_path, pipeline_run)
        assert_data_error(code, capsys, "BlockingIOError", "Resource temporarily unavailable")
        assert file_bytes(out) == {FEATURES_CSV: (pipeline_run.out_dir / FEATURES_CSV).read_bytes()}
        assert open_fds() == before_fds

    def test_missing_offsets_series_fails_before_training(
        self, tmp_path, pipeline_run, capsys, monkeypatch
    ):
        """A series.csv without summer_tmin cannot give the offsets: the stage
        fails before it trains, and the earlier run's artifacts stay as they were."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_run.out_dir, out)
        before = file_bytes(tmp_path)
        series = tmp_path / "series.csv"
        series.write_text("".join(
            line for line in pipeline_run.data["series"].read_text().splitlines(keepends=True)
            if ",summer_tmin," not in line
        ))
        calls = []
        real = pipeline.train_lstm

        def counted(*args, **kwargs):
            calls.append(args[1].seed)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_lstm", counted)
        code = cli.main(["train-climate", "--out-dir", str(out), "--seed", str(CLIMATE_SEED),
                         "--series", str(series), "--max-epochs", "3"])
        assert code == 3
        error = capsys.readouterr().err.splitlines()[-1]
        assert json.loads(error) == {"error": "DataError",
                                     "message": f"{series}: no region has all three "
                                                "temperature series"}
        assert calls == []
        assert file_bytes(tmp_path) == {**before, "series.csv": series.read_bytes()}


class TestForecastYears:
    """forecast rolls each LSTM as many 10-year blocks as the earliest-ending
    series of its batch needs to reach --target-year. The series of the
    pipeline run end in 2021."""

    @staticmethod
    def forecast(tmp_path, pipeline_run, target_year, series=None):
        out = tmp_path / "out"
        if not out.exists():
            shutil.copytree(pipeline_run.out_dir, out)
        code = cli.main(["forecast", "--out-dir", str(out), "--target-year", str(target_year),
                         "--series", str(series or pipeline_run.data["series"])])
        return code, out

    @staticmethod
    def years(out) -> dict[tuple[str, str], list[int]]:
        years: dict = {}
        for row in read_csv(out / FORECAST_CSV):
            years.setdefault((row["region_id"], row["variable"]), []).append(int(row["year"]))
        return years

    def test_target_year_must_pass_the_series(self, tmp_path, pipeline_run, capsys):
        code, out = self.forecast(tmp_path, pipeline_run, 2021)
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "--target-year 2021 is not beyond the observed series (last year 2021)",
        }
        assert file_bytes(out) == file_bytes(pipeline_run.out_dir)
        code, out = self.forecast(tmp_path, pipeline_run, 2022)
        assert code == 0
        assert set(map(tuple, self.years(out).values())) == {tuple(range(2022, 2032))}

    def test_target_year_is_bounded(self, tmp_path, pipeline_run, capsys):
        """At most MAX_FORECAST_YEARS past the last observed year, checked
        before anything is written."""
        assert pipeline.MAX_FORECAST_YEARS == 1000
        code, out = self.forecast(tmp_path, pipeline_run, 3022)
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "--target-year 3022 is more than 1000 years beyond the observed "
                       "series (last year 2021)",
        }
        assert file_bytes(out) == file_bytes(pipeline_run.out_dir)
        code, out = self.forecast(tmp_path, pipeline_run, 3021)
        assert code == 0, capsys.readouterr().err
        assert max(map(max, self.years(out).values())) == 3021

    def test_non_finite_forecast_is_not_written(self, tmp_path, pipeline_run, capsys):
        """Finite but huge series values would roll to inf/nan: their window
        is refused, naming the series, before anything is written, and
        stderr holds nothing but the JSON error."""
        code, out = self.forecast(tmp_path, pipeline_run, 2050,
                                  huge_precip_series(tmp_path, pipeline_run))
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "DataError", "message": TOO_LARGE_TO_STANDARDIZE}
        assert file_bytes(out) == file_bytes(pipeline_run.out_dir)

    @pytest.mark.parametrize("target_year, count", [(2031, 10), (2035, 20), (2060, 40)])
    def test_rounds_follow_target_year(self, tmp_path, pipeline_run, capsys, target_year, count):
        code, out = self.forecast(tmp_path, pipeline_run, target_year)
        assert code == 0, capsys.readouterr().err
        years = self.years(out)
        assert len(years) == 5 * pipeline_run.forecast_report["regions"]
        assert set(map(tuple, years.values())) == {tuple(range(2022, 2022 + count))}

    def test_early_ending_series_reaches_target_year(self, tmp_path, pipeline_run, capsys):
        """A summer_tmean series that stops in 2015 rolls its whole batch one
        block further, so project finds every region's value for 2050."""
        series = tmp_path / "series.csv"
        series.write_text("".join(
            line for line in pipeline_run.data["series"].read_text().splitlines(keepends=True)
            if not (line.startswith("dry-basin,summer_tmean,") and int(line.split(",")[2]) > 2015)
        ))
        code, out = self.forecast(tmp_path, pipeline_run, 2050, series)
        assert code == 0, capsys.readouterr().err
        years = self.years(out)
        assert years[("dry-basin", "summer_tmean")] == list(range(2016, 2056))
        assert years[("dry-basin", "summer_tmax")] == list(range(2016, 2056))
        assert years[("cascade-ridge", "summer_tmean")] == list(range(2022, 2062))
        assert years[("dry-basin", "summer_precip")] == list(range(2022, 2052))
        code = cli.main(["project", "--out-dir", str(out), "--year", "2050",
                         "--regions", str(pipeline_run.data["regions"])])
        assert code == 0, capsys.readouterr().err


def test_short_series_is_skipped_by_train_climate_refused_by_forecast(
        tmp_path, pipeline_run, capsys):
    """A series shorter than a window is left out of training, with one
    warning, and named in the summary; forecast refuses it, naming it, and
    writes nothing."""
    series = tmp_path / "series.csv"
    series.write_text("".join(
        line for line in pipeline_run.data["series"].read_text().splitlines(keepends=True)
        if not (line.startswith("gulf-plain,summer_precip,") and int(line.split(",")[2]) < 2007)
    ))
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(pipeline_run.out_dir / FEATURES_CSV, out)
    code = cli.main(["train-climate", "--out-dir", str(out), "--seed", str(CLIMATE_SEED),
                     "--series", str(series), "--max-epochs", "3"])
    assert code == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: series 'gulf-plain'/'summer_precip' has 15 values; needs at least 30"
    ]
    assert json.loads((out / CLIMATE_REPORT_JSON).read_text())["skipped"] == [
        "gulf-plain/summer_precip"
    ]

    before = file_bytes(out)
    code = cli.main(["forecast", "--out-dir", str(out), "--series", str(series),
                     "--target-year", "2050"])
    message = "series 'gulf-plain'/'summer_precip' has 15 values; needs at least 20"
    assert assert_data_error(code, capsys, "DataError", message)["message"] == message
    assert file_bytes(out) == before


class TestForecastNeedsEveryRegionWhole:
    """forecast rolls every region that has a series of one forecast
    variable, or refuses the series.csv, naming the region and the
    variable: exit 3, one JSON DataError and nothing written."""

    @pytest.mark.parametrize(
        "drop, message",
        [(lambda region, variable, year: variable == "summer_precip",
          "{series}: region 'cascade-ridge' has no 'summer_precip' series"),
         (lambda region, variable, year: (region, variable) == ("lake-plain", "summer_precip"),
          "{series}: region 'lake-plain' has no 'summer_precip' series"),
         (lambda region, variable, year: region == "piedmont"
          and variable in FORECAST_VARIABLES and year < 2007,
          "series 'piedmont'/'summer_tmean' has 15 values; needs at least 20"),
         (lambda region, variable, year: variable in FORECAST_VARIABLES,
          "{series}: no region has a summer_tmean or summer_precip series")],
        ids=["no-precip-rows", "region-without-precip", "region-all-short", "no-forecast-rows"],
    )
    def test_incomplete_region_refused(self, tmp_path, pipeline_run, capsys, drop, message):
        """Skipping any of these would write a forecast.csv that project refuses."""
        series = tmp_path / "series.csv"
        header, *rows = pipeline_run.data["series"].read_text().splitlines(keepends=True)
        series.write_text(header + "".join(
            row for row in rows
            if not drop(*row.split(",")[:2], int(row.split(",")[2]))
        ))
        out = shutil.copytree(pipeline_run.out_dir, tmp_path / "out")
        before = file_bytes(out)
        code = cli.main(["forecast", "--out-dir", str(out), "--series", str(series),
                         "--target-year", "2050"])
        message = message.format(series=series)
        assert assert_data_error(code, capsys, "DataError", message)["message"] == message
        assert file_bytes(out) == before


def huge_precip_series(tmp_path, pipeline_run) -> Path:
    """The pipeline run's series.csv with gulf-plain's summer_precip at
    ±1e300, whose windows' standard deviation overflows."""
    series = tmp_path / "series.csv"
    lines = pipeline_run.data["series"].read_text().splitlines(keepends=True)
    series.write_text("".join(
        f"gulf-plain,summer_precip,{line.split(',')[2]},{(-1) ** i * 1e300!r}\n"
        if line.startswith("gulf-plain,summer_precip,") else line
        for i, line in enumerate(lines)
    ))
    return series


TOO_LARGE_TO_STANDARDIZE = ("series gulf-plain/summer_precip: a window is too large to "
                            "standardize (mean 0.0, standard deviation inf)")


def test_window_too_large_to_standardize_stops_train_climate(tmp_path, pipeline_run, capsys):
    """train-climate refuses a window whose standard deviation overflows,
    naming its series, before any training: exit 3, one JSON error on
    stderr and nothing written."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(pipeline_run.out_dir / FEATURES_CSV, out)
    code = cli.main(["train-climate", "--out-dir", str(out), "--seed", str(CLIMATE_SEED),
                     "--series", str(huge_precip_series(tmp_path, pipeline_run))])
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "DataError", "message": TOO_LARGE_TO_STANDARDIZE}
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == [FEATURES_CSV]


class TestOffsetYears:
    """train-climate fits each region's offsets on the years its mean, min
    and max series share, not on their values by position."""

    @staticmethod
    def train_climate(tmp_path, pipeline_run, keep):
        """train-climate on the run's series.csv less the dry-basin
        temperature rows for which ``keep(variable, year)`` is false."""
        series = tmp_path / "series.csv"
        lines = pipeline_run.data["series"].read_text().splitlines(keepends=True)
        series.write_text("".join(
            line for line in lines
            if not line.startswith("dry-basin,summer_t")
            or keep(line.split(",")[1], int(line.split(",")[2]))
        ))
        out = tmp_path / "out"
        shutil.copytree(pipeline_run.out_dir, out)
        code = cli.main(["train-climate", "--out-dir", str(out), "--seed", str(CLIMATE_SEED),
                         "--series", str(series), "--max-epochs", "3"])
        return code, out, series

    def test_shifted_series_are_aligned_by_year(self, tmp_path, pipeline_run, capsys):
        code, out, series = self.train_climate(
            tmp_path, pipeline_run,
            lambda variable, year: year <= 2018 if variable == "summer_tmean" else year >= 1982,
        )
        assert code == 0, capsys.readouterr().err
        values: dict = {}
        for row in read_csv(series):
            if row["region_id"] == "dry-basin" and 1982 <= int(row["year"]) <= 2018:
                values.setdefault(row["variable"], []).append(float(row["value"]))
        k = load_document(out / OFFSETS_JSON, "offsets")["regions"]["dry-basin"]
        assert k["k_min"] == estimate_k(values["summer_tmean"], values["summer_tmin"], "min")
        assert k["k_max"] == estimate_k(values["summer_tmean"], values["summer_tmax"], "max")

    def test_series_sharing_no_year_are_skipped(self, tmp_path, pipeline_run, capsys):
        code, out, series = self.train_climate(
            tmp_path, pipeline_run,
            lambda variable, year: year <= 2010 if variable == "summer_tmean" else year > 2010,
        )
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: region 'dry-basin': its mean, min and max series share no year; "
            "offsets skipped"
        ]
        assert "dry-basin" not in load_document(out / OFFSETS_JSON, "offsets")["regions"]
        report = json.loads((out / CLIMATE_REPORT_JSON).read_text())
        assert report["offsets_regions"] == len(synth.REGIONS) - 1
        before = file_bytes(out)
        code = cli.main(["forecast", "--out-dir", str(out), "--series", str(series),
                         "--target-year", "2050"])
        message = f"{out / OFFSETS_JSON}: region 'dry-basin' has no fitted offsets"
        assert assert_data_error(code, capsys, "DataError", message)["message"] == message
        assert file_bytes(out) == before

    def test_early_ending_mean_series_runs_to_projection(self, tmp_path, pipeline_run, capsys):
        code, out, series = self.train_climate(
            tmp_path, pipeline_run,
            lambda variable, year: variable != "summer_tmean" or year <= 2015,
        )
        assert code == 0, capsys.readouterr().err
        code = cli.main(["forecast", "--out-dir", str(out), "--series", str(series),
                         "--target-year", "2050"])
        assert code == 0, capsys.readouterr().err
        code = cli.main(["project", "--out-dir", str(out), "--year", "2050",
                         "--regions", str(pipeline_run.data["regions"])])
        assert code == 0, capsys.readouterr().err


# A region's feature with one coordinate left to fill in.
GEOMETRY_POINT = ('{"features": [{"properties": {"region_id": "a"}, '
                  '"geometry": {"type": "Point", "coordinates": [%s, 2.0]}}]}')


class TestReportGeometry:
    def report(self, tmp_path, content, *extra):
        out = tmp_path / "out"
        line = "a,{},2.0,99.0,20.0,26.0,14.0,8.0,55.0,100.0\n"
        write_projections(out, line.format(2030), line.format(2050))
        geometry = tmp_path / "regions.geojson"
        if content is not None:
            geometry.write_text(content)
        return report(out, "--geometry", str(geometry), *extra)

    @pytest.mark.parametrize(
        "content, error, text",
        [
            (None, "DataError", "not found"),
            ('{"features": [', "ParseError", "malformed JSON"),
            ("[]", "ParseError", "root must be an object"),
            ('{"features": [1]}', "DataError", "feature 0"),
            ('{"type": "FeatureCollection"}', "DataError",
             "regions.geojson: geometry document has no 'features' list"),
            ('{"features": [{"properties": [1]}]}', "DataError",
             "regions.geojson: geometry feature 0: 'properties' is not an object"),
            *((GEOMETRY_POINT % number, "ParseError", f"non-finite number: {number}")
              for number in ("NaN", "-Infinity", "1e999")),
        ],
        ids=["missing", "malformed", "non-object-root", "non-object-feature",
             "no-features-list", "non-object-properties",
             "nan", "infinity", "beyond-float-range"],
    )
    def test_bad_geometry_is_data_error(self, tmp_path, capsys, content, error, text):
        assert_data_error(self.report(tmp_path, content), capsys, error, text)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [PROJECTIONS_CSV]

    def named_features(self, tmp_path, capsys, pipeline_run, *extra):
        """report on a copy of the pipeline run with a geometry whose features
        carry each region's id as "name": exit code, stdout summary, stderr
        and the merged features."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_run.out_dir, out)
        regions = sorted(row["region_id"] for row in read_csv(out / CHOROPLETH_CSV))
        geometry = tmp_path / "regions.geojson"
        geometry.write_text(json.dumps(
            {"features": [{"properties": {"name": region}} for region in regions]}))
        code = report(out, "--geometry", str(geometry), *extra)
        captured = capsys.readouterr()
        features = json.loads((out / "choropleth.geojson").read_text())["features"]
        return code, json.loads(captured.out), captured.err, regions, features

    def test_region_key_merges_every_region(self, tmp_path, capsys, pipeline_run):
        code, summary, err, regions, features = self.named_features(
            tmp_path, capsys, pipeline_run, "--region-key", "name")
        assert code == 0 and err == "" and "unmatched_regions" not in summary
        merged = [f["properties"]["name"] for f in features if "abundance" in f["properties"]]
        assert merged == regions

    def test_default_region_key_merges_nothing(self, tmp_path, capsys, pipeline_run):
        code, summary, err, regions, features = self.named_features(tmp_path, capsys,
                                                                    pipeline_run)
        assert code == 0 and "warning: regions missing from geometry" in err
        assert summary["unmatched_regions"] == regions
        assert not any("abundance" in f["properties"] for f in features)

    def test_geometry_out_directory_missing(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.geojson"
        code = self.report(tmp_path, '{"features": []}', "--geometry-out", str(missing))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_geometry_out_is_a_directory(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.mkdir()
        content = '{"features": [{"properties": {"region_id": "a"}}]}'
        code = self.report(tmp_path, content, "--geometry-out", str(occupied))
        assert_data_error(code, capsys, "IsADirectoryError", str(occupied))
        # Only the inputs: neither table, and no temp file beside --geometry-out.
        assert list(file_bytes(tmp_path)) == [f"out/{PROJECTIONS_CSV}", "regions.geojson"]

    @pytest.mark.parametrize("spelled", ["", ".", "/"])
    def test_geometry_out_names_no_file(self, tmp_path, capsys, monkeypatch, spelled):
        monkeypatch.chdir(tmp_path)
        code = self.report(tmp_path, '{"features": []}', "--geometry-out", spelled)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": f"--geometry-out names no file: {Path(spelled)}"}
        assert list(file_bytes(tmp_path)) == [f"out/{PROJECTIONS_CSV}", "regions.geojson"]

    @pytest.mark.parametrize("spelled", [PERCENT_CHANGE_CSV, f"../out/{CHOROPLETH_CSV}"])
    def test_geometry_out_names_a_table_report_writes(self, tmp_path, capsys, spelled):
        out = tmp_path / "out"
        code = self.report(tmp_path, '{"features": []}', "--geometry-out", str(out / spelled))
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": f"--geometry-out names a file the pipeline writes: {out / spelled}",
        }
        assert sorted(p.name for p in out.iterdir()) == [PROJECTIONS_CSV]

    @pytest.mark.parametrize("name", [PROJECTIONS_CSV, lstm_document_name("summer_tmean")])
    def test_geometry_out_names_another_artifact(self, tmp_path, capsys, pipeline_run, name):
        out = tmp_path / "out"
        shutil.copytree(pipeline_run.out_dir, out)
        geometry = tmp_path / "regions.geojson"
        geometry.write_text('{"features": []}')
        before = file_bytes(tmp_path)
        code = report(out, "--geometry", str(geometry), "--geometry-out", str(out / name))
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": f"--geometry-out names a file the pipeline writes: {out / name}",
        }
        assert file_bytes(tmp_path) == before

    def test_deepest_geometry_read_is_written(self, tmp_path, capsys):
        """A geometry nested as deep as ``parse_json`` reads is written whole;
        one level deeper is a ParseError naming the file."""
        def nested(depth):
            return '{"features": [], "deep": ' + "[" * depth + "]" * depth + "}"

        read, unread = 1, sys.getrecursionlimit()
        while unread - read > 1:
            depth = (read + unread) // 2
            code = self.report(tmp_path, nested(depth))
            capsys.readouterr()
            read, unread = (depth, unread) if code == 0 else (read, depth)
        assert_data_error(self.report(tmp_path, nested(unread)), capsys, "ParseError",
                          "malformed JSON: nested too deeply to read")
        assert self.report(tmp_path, nested(read)) == 0
        written = (tmp_path / "out" / "choropleth.geojson").read_text()
        assert json.loads(written) == json.loads(nested(read))

    def test_non_utf8_geometry(self, tmp_path, capsys):
        (tmp_path / "regions.geojson").write_bytes(b'{"features": []}\xff\xfe')
        assert_data_error(self.report(tmp_path, None), capsys, "ParseError", "not UTF-8")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "regions.geojson"
        path.write_text('\ufeff{"features": []}', encoding="utf-8")
        assert pipeline.read_geometry(path) == {"features": []}

    def test_null_properties_and_list_ids_unmatched(self):
        features = [{"properties": None}, {"properties": {"region_id": ["a"]}}]
        merged, unmatched = merge_geometry({"features": features}, {"a": {"abundance": 1.0}})
        assert [f["properties"] for f in merged["features"]] == [{}, {"region_id": ["a"]}]
        assert unmatched == ["a"]


KEYED_FILES = ["regions.csv", "series.csv", FORECAST_CSV, PROJECTIONS_CSV]
# Every column table, by the file of a pipeline run (or its data) that it reads.
COLUMN_TABLES = {
    "observations.csv": ingest.OBSERVATION_COLUMNS,
    "stations.csv": ingest.STATION_COLUMNS,
    "series.csv": ingest.SERIES_COLUMNS,
    "regions.csv": ingest.REGION_COLUMNS,
    FEATURES_CSV: ingest.FEATURE_COLUMNS,
    FORECAST_CSV: ingest.FORECAST_COLUMNS,
    PROJECTIONS_CSV: ingest.PROJECTION_COLUMNS,
}


def keyed_file(tmp_path, pipeline_run, name):
    """A copy of the pipeline run plus regions.csv (and series.csv or
    stations.csv when ``name`` is that), the path of ``name`` in it, and a
    function running the stage that reads that file."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_run.out_dir, out)
    regions = tmp_path / "regions.csv"
    shutil.copy(pipeline_run.data["regions"], regions)
    if name == PROJECTIONS_CSV:
        return out / name, lambda: report(out)
    if name == FEATURES_CSV:
        return out / name, lambda: cli.main(["train-abundance", "--out-dir", str(out),
                                             "--seed", "1", "--max-epochs", "2"])
    if name == "stations.csv":
        stations = tmp_path / name
        shutil.copy(pipeline_run.data["stations"], stations)
        return stations, lambda: cli.main([
            "prepare", "--out-dir", str(out), "--observations",
            str(pipeline_run.data["observations"]), "--stations", str(stations)])
    if name == "series.csv":
        series = tmp_path / name
        shutil.copy(pipeline_run.data["series"], series)
        return series, lambda: cli.main(["forecast", "--out-dir", str(out),
                                         "--series", str(series)])
    path = regions if name == "regions.csv" else out / name
    return path, lambda: cli.main(["project", "--out-dir", str(out), "--regions", str(regions),
                                   "--year", "2030", "--year", "2050"])


class TestDuplicateKeys:
    """A key repeated in a keyed table is an error, not a silent overwrite."""

    @pytest.mark.parametrize("name", [*KEYED_FILES, FEATURES_CSV])
    def test_repeated_key_is_parse_error(self, tmp_path, capsys, pipeline_run, name):
        path, stage = keyed_file(tmp_path, pipeline_run, name)
        lines = path.read_text().splitlines()
        lines.append(lines[1].rsplit(",", 1)[0] + ",9999")  # row 2's key, another value
        path.write_text("\n".join(lines) + "\n")
        before = file_bytes(tmp_path)
        doc = assert_data_error(stage(), capsys, "ParseError", f"row {len(lines)}: duplicate key")
        assert doc["message"].endswith("first at row 2")
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize("at_end", [True, False], ids=["copy-last", "copy-first"])
    def test_repeated_station_month_is_parse_error(self, tmp_path, capsys, at_end):
        """A station-month given twice, with other values, is refused wherever
        the copy lies: the join would otherwise take whichever comes first."""
        data = Path(__file__).resolve().parents[1] / "data"
        header, *rows = (data / "stations.csv").read_text(encoding="utf-8").splitlines()
        original = "cascade-ridge-ap1,45.5,-121.0,2015-05,16.85,23.23,11.34,9.0,48.62,1426.3"
        row = rows.index(original) + 2  # the header is row 1
        copy = original.replace(",16.85,23.23,", ",21.85,28.23,")
        rows = [*rows, copy] if at_end else [copy, *rows]
        stations = tmp_path / "stations.csv"
        stations.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        code = cli.main(["prepare", "--out-dir", str(tmp_path / "out"), "--observations",
                         str(data / "observations.csv"), "--stations", str(stations)])
        repeat, first = (len(rows) + 1, row) if at_end else (row + 1, 2)
        assert_data_error(code, capsys, "ParseError",
                          f"{stations}: row {repeat}: duplicate key cascade-ridge-ap1/2015-05, "
                          f"first at row {first}")
        assert not (tmp_path / "out").exists()


class TestHeaderOnly:
    """A keyed table must hold a row: its header alone is refused by the stage
    that reads it, which writes nothing."""

    @pytest.mark.parametrize("name", [*KEYED_FILES, FEATURES_CSV, "stations.csv"])
    def test_header_only_is_parse_error(self, tmp_path, capsys, pipeline_run, name):
        path, stage = keyed_file(tmp_path, pipeline_run, name)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        before = file_bytes(tmp_path)
        assert_data_error(stage(), capsys, "ParseError",
                          f"{path}: no data row, at least one required")
        assert file_bytes(tmp_path) == before


class TestColumns:
    """Every declared column is present once and non-empty in every row."""

    @pytest.mark.parametrize("name", KEYED_FILES)
    def test_row_missing_its_key_is_parse_error(self, tmp_path, capsys, pipeline_run, name):
        path, stage = keyed_file(tmp_path, pipeline_run, name)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0][0] == "region_id"
        rows = [row[1:] + row[:1] for row in rows]  # the key column last
        rows[1].pop()
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        assert_data_error(stage(), capsys, "ParseError", "row 2: column 'region_id' is empty")

    @pytest.mark.parametrize("name", COLUMN_TABLES)
    def test_row_longer_than_header_is_parse_error(self, tmp_path, pipeline_run, name):
        source = pipeline_run.data.get(Path(name).stem, pipeline_run.out_dir / name)
        header, first, *rest = source.read_text().splitlines()
        path = tmp_path / name
        path.write_text("\n".join([header, first + ",1", *rest]) + "\n")
        width = len(header.split(","))
        with pytest.raises(ParseError, match=f"row 2: {width + 1} fields, header has {width}$"):
            list(ingest.read_rows(path, COLUMN_TABLES[name]))

    def test_long_row_exits_3(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        header, first, *rest = paths["observations"].read_text().splitlines()
        paths["observations"].write_text("\n".join([header, first + ",400", *rest]) + "\n")
        code = cli.main(
            ["prepare", "--out-dir", str(tmp_path / "out"),
             "--observations", str(paths["observations"]), "--stations", str(paths["stations"])]
        )
        assert_data_error(code, capsys, "ParseError", "row 2: 7 fields, header has 6")

    def test_row_number_is_line_number(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,elevation_m\n\nr1,100.0\n\nr2,abc\n")
        with pytest.raises(ParseError, match="row 5: column 'elevation_m': cannot parse"):
            ingest.parse_regions(path)

    def test_duplicate_key_rows_are_line_numbers(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,elevation_m\n\nr1,100.0\n\nr1,200.0\n")
        with pytest.raises(ParseError, match="row 5: duplicate key r1, first at row 3$"):
            ingest.parse_regions(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("\ufeffregion_id,elevation_m\nr1,100.0\n", encoding="utf-8")
        assert ingest.parse_regions(path) == {"r1": 100.0}

    def test_repeated_header_column(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("region_id,elevation_m,elevation_m\nr1,100.0,9999.0\n")
        with pytest.raises(ParseError, match="column 'elevation_m' repeats in the header"):
            ingest.parse_regions(path)


class TestOutputErrors:
    def test_out_dir_is_a_file(self, tmp_path, capsys):
        paths = synth.write_prepare_fixture(tmp_path / "data")
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        code = cli.main(
            ["prepare", "--out-dir", str(occupied),
             "--observations", str(paths["observations"]), "--stations", str(paths["stations"])]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_failed_write_exits_3(self, tmp_path, capsys, monkeypatch):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))

        out = tmp_path / "out"
        line = "a,{},2.0,99.0,20.0,26.0,14.0,8.0,55.0,100.0\n"
        write_projections(out, line.format(2030), line.format(2050))
        monkeypatch.setattr(os, "replace", full_disk)
        assert_data_error(report(out), capsys, "OSError", os.strerror(errno.ENOSPC))
        assert sorted(p.name for p in out.iterdir()) == [PROJECTIONS_CSV]


# One JSON document of each kind, by the stage that reads it.
DOCUMENT_STAGES = {
    lstm_document_name("summer_tmean"): "forecast",
    OFFSETS_JSON: "forecast",
    DAYS_MODEL_JSON: "forecast",
    ABUNDANCE_MODEL_JSON: "project",
    ABUNDANCE_SCALERS_JSON: "project",
}


def document_reader(tmp_path, pipeline_run, name):
    """A copy of the pipeline run, the path of ``name`` in it, and a function
    running the stage that reads that file; a name outside DOCUMENT_STAGES
    is a ``--geometry`` file for report."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_run.out_dir, out)
    stage = DOCUMENT_STAGES.get(name, "report")
    if stage == "forecast":
        extra = ["--series", str(pipeline_run.data["series"])]
    elif stage == "project":
        extra = ["--regions", str(pipeline_run.data["regions"]), "--year", "2030"]
    else:
        extra = ["--start-year", "2030", "--end-year", "2050", "--geometry", str(out / name)]
    return out / name, lambda: cli.main([stage, "--out-dir", str(out), *extra])


@pytest.mark.parametrize("name", DOCUMENT_STAGES)
def test_non_utf8_document(tmp_path, capsys, pipeline_run, name):
    path, run = document_reader(tmp_path, pipeline_run, name)
    path.write_bytes(b"\xff")
    assert_data_error(run(), capsys, "ParseError", f"{path}: not UTF-8")


def replaced(field, change):
    """An edit of a JSON document's text setting ``field`` to ``change`` of
    its value; ``json.dumps`` writes a float NaN as ``NaN``."""

    def edit(text):
        doc = json.loads(text)
        doc[field] = change(doc[field])
        return json.dumps(doc)

    return edit


# UTF-8 JSON that fails the parse, the finiteness rule, a field's type or the
# dense activation rule: (file, edit of its text, the message after the path).
BAD_JSON = {
    "unclosed-offsets": (OFFSETS_JSON, lambda text: "{", "malformed JSON at line 1"),
    "truncated-lstm": (lstm_document_name("summer_tmean"), lambda text: text[: len(text) // 2],
                       "malformed JSON at line"),
    "nan-dropout-rate": (ABUNDANCE_MODEL_JSON, replaced("dropout_rate", lambda _: float("nan")),
                         "malformed JSON: non-finite number: NaN"),
    "true-in-scaler-mean": (ABUNDANCE_SCALERS_JSON, replaced("mean", lambda v: [True, *v[1:]]),
                            "scalers document: field 'mean' must be an array of JSON numbers"),
    "relu-output": (ABUNDANCE_MODEL_JSON, replaced("activations", lambda a: ["relu"] * len(a)),
                    "dense document: activations must be relu on each hidden layer"),
    "identity-hidden": (ABUNDANCE_MODEL_JSON,
                        replaced("activations", lambda a: ["identity"] * len(a)),
                        "dense document: activations must be relu on each hidden layer"),
    "unclosed-geometry": ("regions.geojson", lambda text: '{"features": [',
                          "malformed JSON at line 1"),
}


@pytest.mark.parametrize("case", BAD_JSON)
def test_bad_json_error_names_the_file(tmp_path, capsys, pipeline_run, case):
    name, edit, message = BAD_JSON[case]
    path, run = document_reader(tmp_path, pipeline_run, name)
    path.write_text(edit(path.read_text(encoding="utf-8") if path.exists() else ""))
    doc = assert_data_error(run(), capsys, "ParseError", message)
    assert doc["message"].startswith(f"{path}: {message}")


@pytest.mark.parametrize("name", [*DOCUMENT_STAGES, "regions.geojson"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, pipeline_run, name):
    """JSON nested past the interpreter's recursion limit is a ParseError
    naming the file, and the stage writes nothing."""
    path, run = document_reader(tmp_path, pipeline_run, name)
    path.write_text('{"schema_version": 1, "kind": "offsets", "regions": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    before = file_bytes(tmp_path)
    doc = assert_data_error(run(), capsys, "ParseError", "nested too deeply")
    assert doc["message"] == f"{path}: malformed JSON: nested too deeply to read"
    assert file_bytes(tmp_path) == before


def copy_lines(source, dest, drop) -> Path:
    """Write ``source`` to ``dest`` without the lines ``drop`` accepts."""
    lines = Path(source).read_text().splitlines(keepends=True)
    dest.write_text("".join(line for line in lines if not drop(line)))
    return dest


def short_precip_series(tmp_path, data) -> Path:
    """The series with every summer_precip series cut to 29 years, one short of a window."""
    return copy_lines(data["series"], tmp_path / "series.csv", lambda line: (
        ",summer_precip," in line and int(line.split(",")[2]) >= 2008))


def lstm_dropping_every_input(out) -> Path:
    path = out / lstm_document_name("summer_tmean")
    path.write_text(replaced("input_dropout_rate", lambda _: 1.0)(path.read_text()))
    return path


# A stage refused for what one file holds, on a copy of the pipeline run's
# --out-dir: (the stage's arguments, the error and its message, naming the
# file), each built from the test's tmp_path, that --out-dir and the data.
REFUSALS = {
    "region-missing-from-regions": lambda tmp, out, data: (
        ["project", "--regions", str(copy_lines(data["regions"], tmp / "regions.csv",
                                                lambda line: line.startswith("piedmont,")))],
        "DataError", f"region 'piedmont' missing from {tmp / 'regions.csv'}"),
    **{f"project-year-{year}": lambda tmp, out, data, year=year: (
        ["project", "--regions", str(data["regions"]), "--year", str(year)],
        "DataError",
        f"{out / FORECAST_CSV}: forecast value missing for cascade-ridge/summer_tmean/{year}")
       for year in (2021, 2060)},
    "end-year-not-projected": lambda tmp, out, data: (
        ["report", "--start-year", "2030", "--end-year", "2040"],
        "DataError", f"{out / PROJECTIONS_CSV}: projections for region 'cascade-ridge' "
                     "must cover both 2030 and 2040"),
    "precip-series-too-short": lambda tmp, out, data: (
        ["train-climate", "--seed", "1", "--series", str(short_precip_series(tmp, data))],
        "DataError", f"{tmp / 'series.csv'}: no trainable windows for variable 'summer_precip'"),
    "lstm-dropping-every-input": lambda tmp, out, data: (
        ["forecast", "--series", str(data["series"])],
        "ParseError", f"{lstm_dropping_every_input(out)}: lstm document: "
                      "input_dropout_rate must lie in [0, 1)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_file_and_writes_nothing(tmp_path, capsys, pipeline_run, case):
    out = tmp_path / "out"
    shutil.copytree(pipeline_run.out_dir, out)
    argv, error, message = REFUSALS[case](tmp_path, out, pipeline_run.data)
    before = file_bytes(out)
    code = cli.main([argv[0], "--out-dir", str(out), *argv[1:]])
    *warnings, last = capsys.readouterr().err.splitlines()
    assert code == 3
    assert all(line.startswith("warning: ") for line in warnings)
    assert json.loads(last) == {"error": error, "message": message}
    assert file_bytes(out) == before


class TestDocumentsTheStageCannotRun:
    """A model document that parses but does not fit the stage reading it is
    a DataError naming the file."""

    def test_lstm_horizon_beyond_lookback(self, tmp_path, capsys, pipeline_run):
        path, run = document_reader(tmp_path, pipeline_run, lstm_document_name("summer_tmean"))
        path.write_text(replaced("lookback", lambda _: 5)(path.read_text()))
        doc = assert_data_error(run(), capsys, "DataError", "horizon must not exceed lookback")
        assert doc["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("dims", [(5, 4, 1), (6, 4, 2)])
    def test_regressor_of_another_shape(self, tmp_path, capsys, pipeline_run, dims):
        path, run = document_reader(tmp_path, pipeline_run, ABUNDANCE_MODEL_JSON)
        (path.parent / PROJECTIONS_CSV).unlink()
        path.write_text(serialize_network(xavier_init(dims, seed=0)))
        doc = assert_data_error(run(), capsys, "DataError",
                                f"maps {dims[0]} inputs to {dims[-1]} outputs")
        assert doc["message"].startswith(f"{path}: ")
        assert not (path.parent / PROJECTIONS_CSV).exists()

    def test_scalers_of_other_features(self, tmp_path, capsys, pipeline_run):
        path, run = document_reader(tmp_path, pipeline_run, ABUNDANCE_SCALERS_JSON)
        path.write_text(replaced("feature_names", lambda names: names[::-1])(path.read_text()))
        doc = assert_data_error(run(), capsys, "DataError", "do not match")
        assert doc["message"].startswith(f"{path}: ")


def test_non_utf8_observations(tmp_path, capsys):
    paths = synth.write_prepare_fixture(tmp_path / "data")
    header, first, *rest = paths["observations"].read_bytes().splitlines()
    paths["observations"].write_bytes(b"\n".join([header, first + b"\xff\xfe", *rest]) + b"\n")
    code = cli.main(
        ["prepare", "--out-dir", str(tmp_path / "out"),
         "--observations", str(paths["observations"]), "--stations", str(paths["stations"])]
    )
    assert_data_error(code, capsys, "ParseError", f"{paths['observations']}: not UTF-8")
