"""Pipeline stages behind the CLI: prepare, train, forecast, project, report.

Every stage is deterministic for a fixed seed: rerunning a stage on the
same inputs produces byte-identical output files. Intermediate artifacts
are plain CSV and JSON documents in the configured output directory. Each
stage computes all of its artifacts and then writes them with one
``serialize.commit``, so a stage that fails writes none of them.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import ingest, lstm, serialize
from .errors import ConfigError, DataError, ParseError
from .forecast import ForecastConfig, check_window, forecast_series, require_window
from .ingest import FEATURE_NAMES, NUMBER, TEXT, YEAR, FeatureRow, csv_text, feature_values, fmt
from .lstm import lstm_forward, make_windows, train_lstm
from .nn import ABUNDANCE_LAYER_DIMS, forward, train_abundance
from .optim import TrainConfig
from .preprocess import LogCountTransform, StandardScaler, fit_scaler, standardize_rows
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
# How far past the last observed year --target-year may lie: ample for the
# paper's 2050 horizon, and it bounds the forecast's time and file size.
MAX_FORECAST_YEARS = 1000


def lstm_document_name(variable: str) -> str:
    return f"lstm_{variable}.json"


# Every file the stages write in --out-dir; --geometry-out may name none of them.
ARTIFACT_NAMES = (
    FEATURES_CSV, INGEST_REPORT_JSON, ABUNDANCE_MODEL_JSON, ABUNDANCE_SCALERS_JSON,
    ABUNDANCE_REPORT_JSON, CLIMATE_REPORT_JSON, OFFSETS_JSON, DAYS_MODEL_JSON, FORECAST_CSV,
    PROJECTIONS_CSV, CHOROPLETH_CSV, PERCENT_CHANGE_CSV,
    *map(lstm_document_name, FORECAST_VARIABLES),
)

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
        if not math.isfinite(self.max_km) or self.max_km <= 0:
            raise ConfigError(f"--max-km must be a positive finite number: {self.max_km}")

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def artifact(self, name: str) -> Path:
        """Path of an artifact an earlier stage must have written."""
        path = self.path(name)
        if not path.is_file():
            raise DataError(f"artifact not found: {path} (run the stage that writes it first)")
        return path

    def train_config(self, seed_offset: int = 0, max_epochs: int | None = None) -> TrainConfig:
        """The training flags as a ``TrainConfig``, which checks them."""
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
    matches, proximity_dropped = ingest.join_nearest_station(merged, stations, cfg.max_km)
    if not matches:
        raise DataError(
            "no observations survived cleaning "
            f"(container={containers_dropped}, merged={duplicates_merged}, "
            f"proximity={proximity_dropped})"
        )

    report = {
        "input_rows": len(observations),
        "container": containers_dropped,
        "merged": duplicates_merged,
        "proximity": proximity_dropped,
        "retained": len(matches),
    }
    serialize.commit({
        cfg.path(FEATURES_CSV): ingest.feature_text(matches),
        cfg.path(INGEST_REPORT_JSON): serialize.dumps(report),
    })
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
    train_cfg = cfg.train_config()  # the training flags, before any read
    if cfg.holdout_oldest < 1:
        raise ConfigError(f"--holdout-oldest must be positive: {cfg.holdout_oldest}")
    rows = read_features(cfg.artifact(FEATURES_CSV))
    n = len(rows)
    if cfg.holdout_oldest >= n:
        raise ConfigError(
            f"holdout_oldest={cfg.holdout_oldest} must lie in [1, {n - 1}] for {n} rows"
        )
    ordered = sorted(rows, key=lambda r: (r.date, r.location_id))
    val_rows = ordered[: cfg.holdout_oldest]
    train_rows = ordered[cfg.holdout_oldest :]

    log_transform = LogCountTransform()
    train_x = np.array([feature_values(r) for r in train_rows])
    train_y = log_transform.transform([r.larvae_count for r in train_rows])
    val_x = np.array([feature_values(r) for r in val_rows])
    val_y = log_transform.transform([r.larvae_count for r in val_rows])

    scaler = fit_scaler(train_x)

    net = train_abundance(
        scaler.transform(train_x),
        train_y,
        train_cfg,
        layer_dims=ABUNDANCE_LAYER_DIMS,
    )

    train_pred = predict_log_abundance(net, scaler, train_x)
    val_pred = predict_log_abundance(net, scaler, val_x)
    report = {
        "n": n,
        "n_train": len(train_rows),
        "n_val": len(val_rows),
        "train": _correlation_entry(train_pred, train_y),
        "validation": _correlation_entry(val_pred, val_y),
        "validation_residuals": asdict(residual_summary(val_pred, val_y)),
    }
    serialize.commit({
        cfg.path(ABUNDANCE_MODEL_JSON): serialize.serialize_network(net),
        cfg.path(ABUNDANCE_SCALERS_JSON): serialize.scalers_to_document(
            scaler, FEATURE_NAMES, log_transform.offset
        ),
        cfg.path(ABUNDANCE_REPORT_JSON): serialize.dumps(report),
    })
    return report


# -- climate training ----------------------------------------------------


def _windowed(series: dict[str, ingest.RegionSeries], width: int,
              skipped: list[str]) -> list[ingest.RegionSeries]:
    """The series of one variable that hold ``width`` values, in region
    order; each other one is warned about and named in ``skipped``."""
    kept = []
    for s in series.values():
        try:
            require_window(s, width)
        except DataError as exc:
            _warn(str(exc))
            skipped.append(f"{s.region_id}/{s.variable}")
        else:
            kept.append(s)
    return kept


def _side_by_side(first, second, name: str) -> tuple:
    """``(first(), second())``: ``first`` runs in this process and ``second``
    in one forked child, which sends back its pickled result, or the
    exception it raised (re-raised here unchanged), through a pipe. If
    ``first`` fails, the child is killed and reaped; a child that ends
    without a result is a ChildProcessError naming ``name``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: report through the pipe, never return into the caller
        status = 1
        try:
            os.close(read_fd)
            try:
                result = second()
            except Exception as exc:
                result = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            result = first()
        except BaseException:
            import signal  # here, so a run that succeeds imports nothing more

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        try:
            data = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ChildProcessError(
            f"the child process for {name!r} ended without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )
    other = pickle.loads(data)  # written by this program's own child
    if isinstance(other, Exception):
        raise other
    return result, other


def cmd_train_climate(cfg: PipelineConfig) -> dict:
    """Train one LSTM per forecast variable plus the derived-series models.

    The two LSTMs train side by side: ``summer_tmean``'s in this process,
    ``summer_precip``'s in one forked child (POSIX ``fork``). A region's
    temperature offsets are fitted on the years its mean, min and max
    series share. The offsets and the days line come first, so a series
    that cannot give them fails before any training; every document is
    written once both models have trained.
    """
    if cfg.series is None:
        raise ConfigError("train-climate needs --series")
    check_window(cfg.lookback, cfg.horizon)  # before any read
    if cfg.lstm_hidden_size < 1:
        raise ConfigError(f"--hidden-size must be positive: {cfg.lstm_hidden_size}")
    train_cfgs = [cfg.train_config(seed_offset=offset, max_epochs=cfg.climate_max_epochs)
                  for offset in range(len(FORECAST_VARIABLES))]
    feature_rows = read_features(cfg.artifact(FEATURES_CSV))
    series = ingest.parse_series(cfg.series)

    summary: dict = {"windows": {}, "skipped": [], "epochs": {}}
    jobs = []
    width = cfg.lookback + cfg.horizon
    for variable, train_cfg in zip(FORECAST_VARIABLES, train_cfgs):
        usable = _windowed(series.get(variable, {}), width, summary["skipped"])
        if not usable:
            raise DataError(f"no trainable windows for variable {variable!r}")
        per_series = [make_windows(s, width) for s in usable]
        windows = np.concatenate(per_series)
        # A window too large to standardize fails here, naming its series, before any training.
        standardize_rows(windows, cfg.lookback, np.repeat(
            [f"series {s.region_id}/{s.variable}" for s in usable], list(map(len, per_series))))
        jobs.append(lambda windows=windows, train_cfg=train_cfg: train_lstm(
            windows, train_cfg, horizon=cfg.horizon, hidden_size=cfg.lstm_hidden_size
        ))
        summary["windows"][variable] = len(windows)

    # Per-region temperature offsets from the historical series, year by year.
    tmin, tmax = series.get("summer_tmin", {}), series.get("summer_tmax", {})
    offsets: dict[str, OffsetK] = {}
    for region_id, tmean in series.get("summer_tmean", {}).items():
        if region_id not in tmin or region_id not in tmax:
            _warn(f"region {region_id!r} lacks min/max series; offsets skipped")
            continue
        trio = (tmean, tmin[region_id], tmax[region_id])
        first = max(s.years[0] for s in trio)
        last = min(s.years[-1] for s in trio)
        if first > last:
            _warn(f"region {region_id!r}: its mean, min and max series share no year; "
                  "offsets skipped")
            continue
        # Years are consecutive, so a year's index is its distance from the first.
        mean, low, high = (s.values[first - s.years[0] : last + 1 - s.years[0]] for s in trio)
        offsets[region_id] = OffsetK(
            k_min=estimate_k(mean, low, "min"), k_max=estimate_k(mean, high, "max")
        )
    if not offsets:
        raise DataError("no region has all three temperature series")

    # Global linear model: days of precipitation from precipitation amount.
    days_model = fit_linear(
        [r.precip_mm for r in feature_rows], [r.precip_days for r in feature_rows]
    )
    summary["offsets_regions"] = len(offsets)
    summary["days_model"] = asdict(days_model)

    artifacts = {}
    trained = _side_by_side(*jobs, name=FORECAST_VARIABLES[1])
    for variable, (model, epochs) in zip(FORECAST_VARIABLES, trained):
        artifacts[cfg.path(lstm_document_name(variable))] = serialize.serialize_lstm(model)
        summary["epochs"][variable] = epochs
    serialize.commit({
        **artifacts,
        cfg.path(OFFSETS_JSON): serialize.offsets_to_document(offsets),
        cfg.path(DAYS_MODEL_JSON): serialize.linear_to_document(days_model),
        cfg.path(CLIMATE_REPORT_JSON): serialize.dumps(summary),
    })
    return summary


# -- climate forecasting -------------------------------------------------


def cmd_forecast(cfg: PipelineConfig) -> dict:
    """Roll the trained LSTMs forward and derive min/max/days series.

    Every region of a variable rolls in one batch; the window length and
    block size come from each LSTM document. A batch rolls as many blocks
    as its earliest-ending series needs to reach ``target_year``, so every
    region covers every year up to it. ``target_year`` lies at most
    ``MAX_FORECAST_YEARS`` past the last observed year.
    """
    if cfg.series is None:
        raise ConfigError("forecast needs --series")
    series = ingest.parse_series(cfg.series)
    models = {}
    for variable in FORECAST_VARIABLES:
        path = cfg.artifact(lstm_document_name(variable))
        model = models[variable] = serialize.read_file(path, serialize.deserialize_lstm)
        try:
            check_window(model.lookback, model.output_len)
        except ConfigError as exc:
            raise DataError(f"{path}: the forecast cannot roll this model: {exc}") from None
    offsets = serialize.read_file(cfg.artifact(OFFSETS_JSON), serialize.offsets_from_document)
    days_model = serialize.read_file(cfg.artifact(DAYS_MODEL_JSON), serialize.linear_from_document)

    last_year = max(s.years[-1] for regions in series.values() for s in regions.values())
    if cfg.target_year <= last_year:
        raise ConfigError(
            f"--target-year {cfg.target_year} is not beyond the observed series "
            f"(last year {last_year})"
        )
    if cfg.target_year > last_year + MAX_FORECAST_YEARS:
        raise ConfigError(
            f"--target-year {cfg.target_year} is more than {MAX_FORECAST_YEARS} years "
            f"beyond the observed series (last year {last_year})"
        )

    results = []
    errors = []
    for variable, model in models.items():
        batch = _windowed(series.get(variable, {}), model.lookback, errors)
        earliest = min((s.years[-1] for s in batch), default=last_year)
        rounds = math.ceil((cfg.target_year - earliest) / model.output_len)
        forecasts = forecast_series(
            lambda x: lstm_forward(model, x.T, mode="eval")[0].T,
            batch,
            ForecastConfig(model.lookback, model.output_len, rounds),
        )
        results.extend(forecasts)
        if variable == "summer_tmean":
            for result in forecasts:
                if result.region_id not in offsets:
                    _warn(f"region {result.region_id!r} has no fitted offsets")
                    errors.append(f"{result.region_id}/offsets")
                    continue
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
    serialize.commit({cfg.path(FORECAST_CSV): ingest.annual_text(results)})
    return {
        "regions": len({r.region_id for r in results}),
        "rows": sum(r.values.size for r in results),
        "errors": errors,
    }


# -- abundance projection ------------------------------------------------


def read_region_elevations(path) -> dict[str, float]:
    return ingest.read_table(path, REGION_COLUMNS, lambda v: v[:1], lambda v: v[1])


def cmd_project(cfg: PipelineConfig) -> dict:
    """Push forecast features through the regressor for the target years."""
    if cfg.regions is None:
        raise ConfigError("project needs --regions (region elevations)")
    years = sorted(set(cfg.years or [cfg.target_year]))
    table = ingest.read_annual(cfg.artifact(FORECAST_CSV), FORECAST_COLUMNS)
    elevations = read_region_elevations(cfg.regions)
    model_path = cfg.artifact(ABUNDANCE_MODEL_JSON)
    net = serialize.read_file(model_path, serialize.deserialize_network)
    if (net.layer_dims[0], net.layer_dims[-1]) != (len(FEATURE_NAMES), 1):
        raise DataError(
            f"{model_path}: the regressor maps {net.layer_dims[0]} inputs to "
            f"{net.layer_dims[-1]} outputs, not the {len(FEATURE_NAMES)} features to 1"
        )
    scalers_path = cfg.artifact(ABUNDANCE_SCALERS_JSON)
    scaler, names, log_offset = serialize.read_file(scalers_path, serialize.scalers_from_document)
    if tuple(names) != FEATURE_NAMES:
        raise DataError(
            f"{scalers_path}: scaler features {names} do not match {list(FEATURE_NAMES)}"
        )
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

    serialize.commit({cfg.path(PROJECTIONS_CSV): csv_text(
        PROJECTION_COLUMNS,
        ([region_id, year, *map(fmt, (log_value, value, *row))]
         for (region_id, year), log_value, value, row
         in zip(keys, log_abundance, abundance, features)),
    )})
    return {"rows": len(keys), "years": years}


# -- reporting -----------------------------------------------------------


def read_geometry(path) -> dict:
    """Load a GeoJSON document under the JSON rules of ``serialize.parse_json``
    (no schema check); anything but a JSON object is a ParseError naming the file."""
    doc = serialize.read_file(path, serialize.parse_json)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: GeoJSON root must be an object")
    return doc


def cmd_report(cfg: PipelineConfig) -> dict:
    """Percent-change table and choropleth data for the comparison years."""
    start_year, end_year = cfg.start_year, cfg.end_year
    if start_year is None or end_year is None:
        raise ConfigError("report needs --start-year and --end-year")
    projections = ingest.read_table(
        cfg.artifact(PROJECTIONS_CSV), PROJECTION_COLUMNS, lambda v: v[:2],
        lambda v: {"log10_abundance": v[2], "abundance": v[3]})
    geometry = None if cfg.geometry is None else read_geometry(cfg.geometry)
    if cfg.geometry_out is not None:
        if not cfg.geometry_out.parent.is_dir():
            raise ConfigError(f"--geometry-out directory not found: {cfg.geometry_out.parent}")
        if cfg.geometry_out.resolve() in {cfg.path(name).resolve() for name in ARTIFACT_NAMES}:
            raise ConfigError(
                f"--geometry-out names a file the pipeline writes: {cfg.geometry_out}"
            )
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

    summary = {"regions": len(regions), "start_year": start_year, "end_year": end_year}
    artifacts = {}
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
        # The user-named file first: if its rename fails (--geometry-out names
        # a directory), it fails before either table below is replaced.
        artifacts[cfg.geometry_out or cfg.path("choropleth.geojson")] = serialize.dumps(merged)
    serialize.commit({
        **artifacts,
        cfg.path(PERCENT_CHANGE_CSV): csv_text(
            ["region_id", f"abundance_{start_year}", f"abundance_{end_year}", "percent_change"],
            ([region, fmt(v0), fmt(v1), "undefined" if change is None else fmt(change)]
             for region, v0, v1, change in table),
        ),
        cfg.path(CHOROPLETH_CSV): csv_text(
            ["region_id", "log10_abundance", "abundance"],
            ([region, *map(fmt, projections[region][end_year].values())]
             for region in regions),
        ),
    })
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
