"""Pipeline stages behind the CLI: prepare, train, forecast, project, report.

Every stage is deterministic for a fixed seed: rerunning a stage on the
same inputs produces byte-identical output files. Intermediate artifacts
are plain CSV and JSON documents in the configured output directory.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ingest, lstm, serialize
from .errors import ConfigError, DataError, ParseError
from .forecast import ForecastConfig, forecast_series, require_window
from .ingest import FEATURE_NAMES, NUMBER, TEXT, YEAR, FeatureRow, fmt, write_csv
from .lstm import lstm_forward, make_windows, train_lstm
from .nn import ABUNDANCE_LAYER_DIMS, forward, train_abundance
from .optim import TrainConfig
from .preprocess import LogCountTransform, StandardScaler
from .stats import correlation_report, residual_summary
from .trend import OffsetK, derive_min_max, estimate_k, fit_linear, predict_days

FEATURES_CSV = "features.csv"
INGEST_REPORT_JSON = "ingest_report.json"
ABUNDANCE_MODEL_JSON = "abundance_model.json"
ABUNDANCE_SCALERS_JSON = "abundance_scalers.json"
ABUNDANCE_REPORT_JSON = "abundance_report.json"
CLIMATE_REPORT_JSON = "climate_report.json"
OFFSETS_JSON = "offsets.json"
DAYS_MODEL_JSON = "precip_days_model.json"
FORECAST_CSV = "forecast.csv"
PROJECTIONS_CSV = "projections.csv"
CHOROPLETH_CSV = "choropleth.csv"
PERCENT_CHANGE_CSV = "percent_change.csv"

FORECAST_VARIABLES = ("summer_tmean", "summer_precip")
DERIVED_DAYS_VARIABLE = "summer_precip_days"

# Column tables (see ``ingest``) of the keyed files stages read.
FORECAST_COLUMNS = {"region_id": TEXT, "variable": TEXT, "year": YEAR, "value": NUMBER}
REGION_COLUMNS = {"region_id": TEXT, "elevation_m": NUMBER}
PROJECTION_COLUMNS = {
    "region_id": TEXT,
    "year": YEAR,
    "log10_abundance": NUMBER,
    "abundance": NUMBER,
    **dict.fromkeys(FEATURE_NAMES, NUMBER),
}


def lstm_document_name(variable: str) -> str:
    return f"lstm_{variable}.json"


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


@dataclass
class PipelineConfig:
    """Every stage setting, declared once; each CLI flag sets one field.
    ``max_epochs`` bounds the regressor, ``climate_max_epochs`` each LSTM."""

    out_dir: Path
    observations: Path | None = None
    stations: Path | None = None
    series: Path | None = None
    regions: Path | None = None
    geometry: Path | None = None
    geometry_out: Path | None = None
    seed: int = 0
    holdout_oldest: int = 35
    target_year: int = 2050
    years: list[int] | None = None
    start_year: int | None = None
    end_year: int | None = None
    rounds: int = 3
    max_km: float = ingest.DEFAULT_MAX_STATION_KM
    lookback: int = lstm.FORECAST_LOOKBACK
    horizon: int = lstm.FORECAST_HORIZON
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_epochs: int = 5000
    climate_max_epochs: int = 1500
    lstm_hidden_size: int = lstm.FORECAST_HIDDEN_SIZE
    region_key: str = "region_id"

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.out_dir.exists() and not self.out_dir.is_dir():
            raise ConfigError(f"--out-dir is not a directory: {self.out_dir}")
        for name in ("observations", "stations", "series", "regions",
                     "geometry", "geometry_out"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, Path(value))

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def artifact(self, name: str) -> Path:
        """Path of an artifact an earlier stage must have written."""
        path = self.path(name)
        if not path.is_file():
            raise DataError(f"artifact not found: {path} (run the stage that writes it first)")
        return path

    def train_config(self, seed_offset: int = 0, max_epochs: int | None = None) -> TrainConfig:
        return TrainConfig(
            seed=self.seed + seed_offset,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            max_epochs=self.max_epochs if max_epochs is None else max_epochs,
        )


# -- prepare -------------------------------------------------------------


def cmd_prepare(cfg: PipelineConfig) -> dict:
    """Clean observations and join station features into features.csv."""
    if cfg.observations is None or cfg.stations is None:
        raise ConfigError("prepare needs --observations and --stations")
    observations = ingest.parse_observations(cfg.observations)
    stations = ingest.parse_stations(cfg.stations)

    kept = ingest.filter_container_sources(observations)
    containers_dropped = len(observations) - len(kept)
    merged = ingest.merge_duplicates(kept)
    duplicates_merged = len(kept) - len(merged)
    rows, proximity_dropped = ingest.join_nearest_station(merged, stations, cfg.max_km)
    if not rows:
        raise DataError(
            "no observations survived cleaning "
            f"(container={containers_dropped}, merged={duplicates_merged}, "
            f"proximity={proximity_dropped})"
        )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        cfg.path(FEATURES_CSV),
        ingest.FEATURE_COLUMNS,
        ([row.location_id, row.date.isoformat(), row.month,
          *map(fmt, row.features()), int(row.larvae_count)] for row in rows),
    )
    report = {
        "input_rows": len(observations),
        "container": containers_dropped,
        "merged": duplicates_merged,
        "proximity": proximity_dropped,
        "retained": len(rows),
    }
    serialize.save_document(cfg.path(INGEST_REPORT_JSON), report)
    return report


def read_features(path) -> list[FeatureRow]:
    return [FeatureRow(*values) for _, values in ingest.read_rows(path, ingest.FEATURE_COLUMNS)]


# -- abundance training --------------------------------------------------


def predict_log_abundance(net, scaler: StandardScaler, features: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for raw feature rows; the single projection path."""
    standardized = scaler.transform(features)
    pred, _ = forward(net, standardized.T, mode="eval")
    return pred[0]


def _correlation_entry(pred, truth) -> dict:
    try:
        report = correlation_report(truth, pred, tail="one")
    except DataError as exc:
        return {"error": str(exc)}
    return {
        "r": report.r,
        "n": report.n,
        "t_stat": report.t_stat,
        "p_one_tailed": report.p_value,
    }


def cmd_train_abundance(cfg: PipelineConfig) -> dict:
    """Train the regressor with a chronological oldest-rows holdout."""
    rows = read_features(cfg.artifact(FEATURES_CSV))
    n = len(rows)
    if cfg.holdout_oldest < 1 or cfg.holdout_oldest >= n:
        raise ConfigError(
            f"holdout_oldest={cfg.holdout_oldest} must lie in [1, {n - 1}] for {n} rows"
        )
    if n - cfg.holdout_oldest < cfg.batch_size:
        raise ConfigError(
            f"training split of {n - cfg.holdout_oldest} rows is below the "
            f"batch size of {cfg.batch_size}"
        )
    ordered = sorted(rows, key=lambda r: (r.date, r.location_id))
    val_rows = ordered[: cfg.holdout_oldest]
    train_rows = ordered[cfg.holdout_oldest :]

    log_transform = LogCountTransform()
    train_x = np.stack([r.features() for r in train_rows])
    train_y = log_transform.transform([r.larvae_count for r in train_rows])
    val_x = np.stack([r.features() for r in val_rows])
    val_y = log_transform.transform([r.larvae_count for r in val_rows])

    scaler = StandardScaler().fit(train_x)
    assert scaler.n_fit_rows_ == len(train_rows)

    net = train_abundance(
        scaler.transform(train_x),
        train_y,
        cfg.train_config(),
        layer_dims=ABUNDANCE_LAYER_DIMS,
    )

    train_pred = predict_log_abundance(net, scaler, train_x)
    val_pred = predict_log_abundance(net, scaler, val_x)
    residuals = residual_summary(val_pred, val_y)
    report = {
        "n": n,
        "n_train": len(train_rows),
        "n_val": len(val_rows),
        "train": _correlation_entry(train_pred, train_y),
        "validation": _correlation_entry(val_pred, val_y),
        "validation_residuals": {
            "n_positive": residuals.n_positive,
            "n_negative": residuals.n_negative,
            "n_zero": residuals.n_zero,
            "max_positive": residuals.max_positive,
            "max_negative": residuals.max_negative,
        },
    }
    with serialize.atomic_open(cfg.path(ABUNDANCE_MODEL_JSON)) as handle:
        handle.write(serialize.serialize_network(net) + "\n")
    serialize.save_document(
        cfg.path(ABUNDANCE_SCALERS_JSON),
        serialize.scalers_to_document(scaler, FEATURE_NAMES, log_transform.offset),
    )
    serialize.save_document(cfg.path(ABUNDANCE_REPORT_JSON), report)
    return report


# -- climate training ----------------------------------------------------


def _series_by_region(series_list, variable: str) -> dict[str, ingest.RegionSeries]:
    return {s.region_id: s for s in series_list if s.variable == variable}


def _fork(job) -> tuple[int, int]:
    """Run ``job()`` in a forked child. Returns the child's pid and the read
    end of a pipe that carries its pickled result, or the exception it raised."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:  # the child: report through the pipe, never return into the caller
        os.close(read_fd)
        try:
            result = job()
        except Exception as exc:  # re-raised by the parent in _join
            result = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, read_fd: int, name: str):
    """Reap a ``_fork`` child and return its result. An exception it raised
    is re-raised here unchanged; a child that ended without a result is a
    ChildProcessError naming ``name``."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ChildProcessError(
            f"the child process for {name!r} ended without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )
    result = pickle.loads(data)  # written by this program's own child
    if isinstance(result, Exception):
        raise result
    return result


def _run_side_by_side(jobs: dict) -> list:
    """The results of every ``{name: job}``, in order. The first job runs in
    this process and each further one in its own forked child; if any
    fails, the children still running are killed and reaped."""
    (_, first), *others = jobs.items()
    children = []
    try:
        for name, job in others:
            children.append((*_fork(job), name))
        results = [first()]
        while children:
            results.append(_join(*children.pop(0)))
    except BaseException:
        import signal  # here, so a run that succeeds imports nothing more

        for pid, read_fd, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
        raise
    return results


def cmd_train_climate(cfg: PipelineConfig) -> dict:
    """Train one LSTM per forecast variable plus the derived-series models.

    The LSTMs train side by side: the first variable's in this process,
    every further one in a forked child (POSIX ``fork``). The documents are
    written once every model has trained.
    """
    if cfg.series is None:
        raise ConfigError("train-climate needs --series")
    ForecastConfig(cfg.lookback, cfg.horizon, rounds=1)  # the window rule, before any read
    feature_rows = read_features(cfg.artifact(FEATURES_CSV))
    series_list = ingest.parse_series(cfg.series)

    summary: dict = {"windows": {}, "skipped": [], "epochs": {}}
    jobs = {}
    for offset, variable in enumerate(FORECAST_VARIABLES):
        by_region = _series_by_region(series_list, variable)
        windows = []
        for region_id in sorted(by_region):
            try:
                windows.append(make_windows(by_region[region_id], cfg.lookback + cfg.horizon))
            except DataError as exc:
                _warn(str(exc))
                summary["skipped"].append(f"{region_id}/{variable}")
        if not windows:
            raise DataError(f"no trainable windows for variable {variable!r}")
        windows = np.concatenate(windows)
        train_cfg = cfg.train_config(seed_offset=offset, max_epochs=cfg.climate_max_epochs)
        jobs[variable] = lambda windows=windows, train_cfg=train_cfg: train_lstm(
            windows, train_cfg, horizon=cfg.horizon, hidden_size=cfg.lstm_hidden_size
        )
        summary["windows"][variable] = len(windows)

    for variable, (model, epochs) in zip(jobs, _run_side_by_side(jobs)):
        with serialize.atomic_open(cfg.path(lstm_document_name(variable))) as handle:
            handle.write(serialize.serialize_lstm(model) + "\n")
        summary["epochs"][variable] = epochs

    # Per-region temperature offsets from the historical series.
    tmean = _series_by_region(series_list, "summer_tmean")
    tmin = _series_by_region(series_list, "summer_tmin")
    tmax = _series_by_region(series_list, "summer_tmax")
    offsets: dict[str, OffsetK] = {}
    for region_id in sorted(tmean):
        if region_id not in tmin or region_id not in tmax:
            _warn(f"region {region_id!r} lacks min/max series; offsets skipped")
            continue
        mean_values = tmean[region_id].values
        offsets[region_id] = OffsetK(
            k_min=estimate_k(mean_values, tmin[region_id].values, "min"),
            k_max=estimate_k(mean_values, tmax[region_id].values, "max"),
        )
    if not offsets:
        raise DataError("no region has all three temperature series")
    serialize.save_document(cfg.path(OFFSETS_JSON), serialize.offsets_to_document(offsets))

    # Global linear model: days of precipitation from precipitation amount.
    days_model = fit_linear(
        [r.precip_mm for r in feature_rows], [r.precip_days for r in feature_rows]
    )
    serialize.save_document(
        cfg.path(DAYS_MODEL_JSON), serialize.linear_to_document(days_model)
    )
    summary["offsets_regions"] = len(offsets)
    summary["days_model"] = {"slope": days_model.slope, "intercept": days_model.intercept}
    serialize.save_document(cfg.path(CLIMATE_REPORT_JSON), summary)
    return summary


# -- climate forecasting -------------------------------------------------


def cmd_forecast(cfg: PipelineConfig) -> dict:
    """Roll the trained LSTMs forward and derive min/max/days series.

    Every region of a variable rolls in one batch; the window length and
    block size come from each LSTM document.
    """
    if cfg.series is None:
        raise ConfigError("forecast needs --series")
    series_list = ingest.parse_series(cfg.series)
    models = {
        variable: serialize.deserialize_lstm(
            cfg.artifact(lstm_document_name(variable)).read_text(encoding="utf-8")
        )
        for variable in FORECAST_VARIABLES
    }
    offsets = serialize.offsets_from_document(
        serialize.load_document(cfg.artifact(OFFSETS_JSON), "offsets")
    )
    days_model = serialize.linear_from_document(
        serialize.load_document(cfg.artifact(DAYS_MODEL_JSON), "linear")
    )

    last_year = max(max(s.years) for s in series_list)
    if cfg.target_year <= last_year:
        raise ConfigError(
            f"target_year {cfg.target_year} is not beyond the observed series "
            f"(last year {last_year})"
        )
    coverage = last_year + min(m.output_len for m in models.values()) * cfg.rounds
    if cfg.target_year > coverage:
        raise ConfigError(
            f"rounds={cfg.rounds} only reaches {coverage}; increase --rounds "
            f"to cover {cfg.target_year}"
        )

    results = []
    errors = []
    for variable, model in models.items():
        forecast_cfg = ForecastConfig(
            lookback=model.lookback, horizon=model.output_len, rounds=cfg.rounds
        )
        by_region = _series_by_region(series_list, variable)
        batch = []
        for region_id in sorted(by_region):
            try:
                require_window(by_region[region_id], model.lookback)
            except DataError as exc:
                _warn(str(exc))
                errors.append(f"{region_id}/{variable}")
                continue
            batch.append(by_region[region_id])
            if variable == "summer_tmean" and region_id not in offsets:
                _warn(f"region {region_id!r} has no fitted offsets")
                errors.append(f"{region_id}/offsets")
        forecasts = forecast_series(
            lambda x: lstm_forward(model, x.T, mode="eval")[0].T,
            batch,
            forecast_cfg,
        )
        results.extend(forecasts)
        if variable == "summer_tmean":
            for result in forecasts:
                if result.region_id in offsets:
                    tmin, tmax = derive_min_max(result.values, offsets[result.region_id])
                    results.append(replace(result, variable="summer_tmin", values=tmin))
                    results.append(replace(result, variable="summer_tmax", values=tmax))
        elif variable == "summer_precip":
            # An extrapolated amount can dip below zero; days are derived
            # from the physically meaningful part.
            days = predict_days(
                days_model, np.maximum([r.values for r in forecasts], 0.0)
            )
            results.extend(
                replace(result, variable=DERIVED_DAYS_VARIABLE, values=values)
                for result, values in zip(forecasts, days)
            )
    if not results:
        raise DataError("no region could be forecast")

    results.sort(key=lambda r: (r.region_id, r.variable))
    write_csv(
        cfg.path(FORECAST_CSV),
        FORECAST_COLUMNS,
        ([result.region_id, result.variable, year, fmt(value)]
         for result in results for year, value in zip(result.years(), result.values)),
    )
    return {
        "regions": len({r.region_id for r in results}),
        "rows": sum(r.values.size for r in results),
        "errors": errors,
    }


# -- abundance projection ------------------------------------------------


def _read_forecast(path) -> dict[str, dict[str, dict[int, float]]]:
    return ingest.read_table(path, FORECAST_COLUMNS, lambda v: v[:3], lambda v: v[3])


def read_region_elevations(path) -> dict[str, float]:
    return ingest.read_table(path, REGION_COLUMNS, lambda v: v[:1], lambda v: v[1])


def cmd_project(cfg: PipelineConfig) -> dict:
    """Push forecast features through the regressor for the target years."""
    if cfg.regions is None:
        raise ConfigError("project needs --regions (region elevations)")
    years = sorted(set(cfg.years or [cfg.target_year]))
    table = _read_forecast(cfg.artifact(FORECAST_CSV))
    elevations = read_region_elevations(cfg.regions)
    net = serialize.deserialize_network(
        cfg.artifact(ABUNDANCE_MODEL_JSON).read_text(encoding="utf-8")
    )
    scaler, names, log_offset = serialize.scalers_from_document(
        serialize.load_document(cfg.artifact(ABUNDANCE_SCALERS_JSON), "scalers")
    )
    if tuple(names) != FEATURE_NAMES:
        raise DataError(f"scaler features {names} do not match {list(FEATURE_NAMES)}")
    log_transform = LogCountTransform(log_offset)

    needed = ("summer_tmean", "summer_tmax", "summer_tmin",
              DERIVED_DAYS_VARIABLE, "summer_precip")
    keys = []
    rows = []
    for region_id in sorted(table):
        if region_id not in elevations:
            raise DataError(f"region {region_id!r} missing from {cfg.regions}")
        per_variable = table[region_id]
        for year in years:
            values = []
            for variable in needed:
                if variable not in per_variable or year not in per_variable[variable]:
                    raise DataError(
                        f"forecast value missing for {region_id}/{variable}/{year}"
                    )
                values.append(per_variable[variable][year])
            keys.append((region_id, year))
            rows.append([*values, elevations[region_id]])
    features = np.array(rows, dtype=float).reshape(-1, len(FEATURE_NAMES))
    log_abundance = predict_log_abundance(net, scaler, features)
    abundance = log_transform.inverse(log_abundance)

    write_csv(
        cfg.path(PROJECTIONS_CSV),
        PROJECTION_COLUMNS,
        ([region_id, year, *map(fmt, (log_value, value, *row))]
         for (region_id, year), log_value, value, row
         in zip(keys, log_abundance, abundance, features)),
    )
    return {"rows": len(keys), "years": years}


# -- reporting -----------------------------------------------------------


def _read_projections(path) -> dict[str, dict[int, dict]]:
    return ingest.read_table(
        path, PROJECTION_COLUMNS, lambda v: v[:2],
        lambda v: {"log10_abundance": v[2], "abundance": v[3]},
    )


def read_geometry(path) -> dict:
    """Load a GeoJSON document; anything but a JSON object is a ParseError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: GeoJSON root must be an object")
    return doc


def cmd_report(cfg: PipelineConfig) -> dict:
    """Percent-change table and choropleth data for the comparison years."""
    start_year, end_year = cfg.start_year, cfg.end_year
    if start_year is None or end_year is None:
        raise ConfigError("report needs --start-year and --end-year")
    projections = _read_projections(cfg.artifact(PROJECTIONS_CSV))
    geometry = None if cfg.geometry is None else read_geometry(cfg.geometry)
    if cfg.geometry_out is not None and not cfg.geometry_out.parent.is_dir():
        raise ConfigError(f"--geometry-out directory not found: {cfg.geometry_out.parent}")
    regions = sorted(projections)
    table = []
    for region in regions:
        start = projections[region].get(start_year)
        end = projections[region].get(end_year)
        if start is None or end is None:
            raise DataError(
                f"projections for region {region!r} must cover both "
                f"{start_year} and {end_year}"
            )
        v0, v1 = start["abundance"], end["abundance"]
        change = 100.0 * (v1 - v0) / v0 if v0 != 0 else None
        table.append((region, v0, v1, change))

    write_csv(
        cfg.path(PERCENT_CHANGE_CSV),
        ["region_id", f"abundance_{start_year}", f"abundance_{end_year}", "percent_change"],
        ([region, fmt(v0), fmt(v1), "undefined" if change is None else fmt(change)]
         for region, v0, v1, change in table),
    )
    write_csv(
        cfg.path(CHOROPLETH_CSV),
        ["region_id", "log10_abundance", "abundance"],
        ([region, *map(fmt, projections[region][end_year].values())]
         for region in regions),
    )

    summary = {"regions": len(regions), "start_year": start_year, "end_year": end_year}
    if geometry is not None:
        merged, unmatched = merge_geometry(
            geometry,
            {
                region: {**projections[region][end_year], "percent_change": change}
                for region, _, _, change in table
            },
            cfg.region_key,
        )
        if unmatched:
            _warn(f"regions missing from geometry: {', '.join(unmatched)}")
            summary["unmatched_regions"] = unmatched
        serialize.save_document(cfg.geometry_out or cfg.path("choropleth.geojson"), merged)
    return summary


def merge_geometry(
    geometry: dict, properties_by_region: dict[str, dict], region_key: str = "region_id"
) -> tuple[dict, list[str]]:
    """Attach per-region values to matching features; geometry untouched.

    Returns the merged document and the regions that had values but no
    matching feature.
    """
    features = geometry.get("features")
    if not isinstance(features, list):
        raise DataError("geometry document has no 'features' list")
    matched = set()
    for index, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise DataError(f"geometry feature {index} is not an object")
        props = feature.get("properties")
        if props is None:
            props = feature["properties"] = {}
        elif not isinstance(props, dict):
            raise DataError(f"geometry feature {index}: 'properties' is not an object")
        region = props.get(region_key)
        if isinstance(region, str) and region in properties_by_region:
            props.update(properties_by_region[region])
            matched.add(region)
    unmatched = sorted(set(properties_by_region) - matched)
    return geometry, unmatched
