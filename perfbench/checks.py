"""Output checks written apart from the program.

Each check reads the program's files with the csv/json modules and
recomputes what they must hold with its own numpy code: a vectorised
haversine join, a stacked-gate LSTM recursion and a dense forward pass.
A failed check raises CheckFailed naming the first value that is off.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from gen import STATION_FIELDS, IngestPlan

MAX_KM = 48.28
EARTH_KM = 6371.0
REL_TOL = 1e-9
FORECAST_VARIABLES = ("summer_tmean", "summer_precip")


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, what: str, tol: float = REL_TOL) -> None:
    _require(
        math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b)),
        f"{what}: program wrote {a!r}, independent value is {b!r}",
    )


def read_csv(path: Path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- prepare -----------------------------------------------------------


def haversine_km(lat1, lon1, lat2, lon2):
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_KM * np.arcsin(np.sqrt(a))


def derive_ingest(observations: Path, stations: Path, max_km: float = MAX_KM) -> IngestPlan:
    """Cleaning counts and each kept observation's nearest station, derived
    from the raw files: container filter, (location, date) merge, then the
    nearest same-month station within max_km (ties on station_id)."""
    obs = read_csv(observations)
    kept = [r for r in obs if r["water_source"] != "container"]
    merged: dict[tuple[str, str], dict] = {}
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for r in kept:
        key = (r["location_id"], r["date"])
        merged.setdefault(key, r)
        counts[key] += int(r["larvae_count"])
    by_month: dict[str, list[dict]] = defaultdict(list)
    station_values = {}
    for s in read_csv(stations):
        by_month[s["month"]].append(s)
        station_values[(s["station_id"], s["month"])] = tuple(float(s[f]) for f in STATION_FIELDS)
    joined = {}
    for key, r in merged.items():
        candidates = by_month.get(r["date"][:7], [])
        if not candidates:
            continue
        d = haversine_km(float(r["latitude"]), float(r["longitude"]),
                         np.array([float(s["latitude"]) for s in candidates]),
                         np.array([float(s["longitude"]) for s in candidates]))
        within = [(d[i], s["station_id"]) for i, s in enumerate(candidates) if d[i] <= max_km]
        if within:
            joined[key] = (min(within)[1], counts[key])
    return IngestPlan(
        observations=Path(observations), stations=Path(stations),
        input_rows=len(obs), container=len(obs) - len(kept),
        merged=len(kept) - len(merged), proximity=len(merged) - len(joined),
        retained=len(joined), joined=joined, station_values=station_values,
    )


def check_prepare(out_dir: Path, plan: IngestPlan) -> int:
    """ingest_report.json counts and every features.csv row against ``plan``."""
    report = read_json(out_dir / "ingest_report.json")
    for name in ("input_rows", "container", "merged", "proximity", "retained"):
        _require(report.get(name) == getattr(plan, name),
                 f"ingest_report.json {name}={report.get(name)}, expected {getattr(plan, name)}")
    rows = read_csv(out_dir / "features.csv")
    _require(len(rows) == plan.retained,
             f"features.csv has {len(rows)} rows, expected {plan.retained}")
    seen = set()
    for row in rows:
        key = (row["location_id"], row["date"])
        _require(key in plan.joined and key not in seen, f"unexpected features.csv row {key}")
        seen.add(key)
        station, count = plan.joined[key]
        expected = plan.station_values[(station, row["date"][:7])]
        for name, value in zip(STATION_FIELDS, expected):
            _require(float(row[name]) == value,
                     f"features.csv {key} {name}={row[name]}, home station {station} has {value!r}")
        _require(int(row["larvae_count"]) == count,
                 f"features.csv {key} larvae_count={row['larvae_count']}, expected {count}")
    return len(rows)


# -- trained models, re-implemented ------------------------------------


def dense_log_abundance(out_dir: Path, features: np.ndarray) -> np.ndarray:
    """Eval-mode forward of abundance_model.json on raw (n, 6) feature rows."""
    model = read_json(out_dir / "abundance_model.json")
    scalers = read_json(out_dir / "abundance_scalers.json")
    a = ((features - np.array(scalers["mean"])) / np.array(scalers["std"])).T
    dims = model["layer_dims"]
    for k, act in enumerate(model["activations"]):
        w = np.array(model["weights"][k]).reshape(dims[k + 1], dims[k])
        a = w @ a + np.array(model["biases"][k])[:, None]
        if act == "relu":
            a = np.maximum(a, 0.0)
    return a[0]


class LstmReference:
    """Eval-mode LSTM from a saved lstm_*.json, gates stacked i, f, o, g."""

    def __init__(self, path: Path):
        doc = read_json(path)
        h = doc["hidden_size"]
        self.h = h
        self.w = np.concatenate([np.array(doc[f"w_{g}"]) for g in "ifog"])  # (4h,)
        self.u = np.concatenate([np.array(doc[f"u_{g}"]).reshape(h, h) for g in "ifog"])
        self.b = np.concatenate([np.array(doc[f"b_{g}"]) for g in "ifog"])
        self.head_w = np.array(doc["head_w"]).reshape(doc["output_len"], h)
        self.head_b = np.array(doc["head_b"])

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """(lookback, batch) standardized windows -> (horizon, batch)."""
        h = np.zeros((self.h, windows.shape[1]))
        c = np.zeros_like(h)
        n = self.h
        for x_t in windows:
            z = self.w[:, None] * x_t[None, :] + self.u @ h + self.b[:, None]
            gate = 1.0 / (1.0 + np.exp(-z[: 3 * n]))
            c = gate[n:2 * n] * c + gate[:n] * np.tanh(z[3 * n:])
            h = gate[2 * n:] * np.tanh(c)
        return self.head_w @ h + self.head_b[:, None]


def recursive_forecast(model: LstmReference, windows: np.ndarray, horizon: int,
                       rounds: int) -> np.ndarray:
    """(batch, lookback) raw windows -> (batch, horizon * rounds) forecasts:
    standardize, predict, de-standardize, append, roll, repeat."""
    x = windows.copy()
    out = []
    for _ in range(rounds):
        mu = x.mean(axis=1, keepdims=True)
        sigma = x.std(axis=1, keepdims=True)
        sigma = np.where(sigma < 1e-9, 1.0, sigma)
        y = model.predict(((x - mu) / sigma).T).T * sigma + mu
        out.append(y)
        x = np.concatenate([x[:, horizon:], y], axis=1)
    return np.concatenate(out, axis=1)


# -- training, forecast, projection, report ----------------------------


def _feature_matrix(rows: list[dict]) -> np.ndarray:
    return np.array([[float(r[f]) for f in STATION_FIELDS] for r in rows])


def check_training_r(out_dir: Path, holdout_oldest: int = 35, minimum: float = 0.85) -> float:
    """Pearson R of the saved regressor on the training split, recomputed."""
    rows = sorted(read_csv(out_dir / "features.csv"), key=lambda r: (r["date"], r["location_id"]))
    train = rows[holdout_oldest:]
    pred = dense_log_abundance(out_dir, _feature_matrix(train))
    truth = np.log10(np.array([float(r["larvae_count"]) for r in train]) + 1.0)
    r = float(np.corrcoef(pred, truth)[0, 1])
    _require(r >= minimum, f"training Pearson R {r:.4f} is below {minimum}")
    _close(read_json(out_dir / "abundance_report.json")["train"]["r"], r,
           "abundance_report.json train.r", 1e-8)
    return r


def _series_table(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    table: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for r in read_csv(path):
        table[(r["region_id"], r["variable"])][int(r["year"])] = float(r["value"])
    return table


def check_forecast(out_dir: Path, series: Path, lookback: int = 20, horizon: int = 10,
                   rounds: int = 3) -> int:
    """forecast.csv against the reference recursion and the derived-series
    rules: tmin/tmax from offsets.json, days from the fitted days line."""
    observed = _series_table(series)
    written = _series_table(out_dir / "forecast.csv")
    regions = sorted({region for region, _ in observed})
    offsets = read_json(out_dir / "offsets.json")["regions"]
    days_model = read_json(out_dir / "precip_days_model.json")

    features = read_csv(out_dir / "features.csv")
    amount = np.array([float(r["precip_mm"]) for r in features])
    days = np.array([float(r["precip_days"]) for r in features])
    slope = float(np.mean((amount - amount.mean()) * (days - days.mean())) / np.var(amount))
    _close(days_model["slope"], slope, "precip_days_model.json slope")
    _close(days_model["intercept"], float(days.mean() - slope * amount.mean()),
           "precip_days_model.json intercept")

    checked = 0
    forecasts = {}
    for variable in FORECAST_VARIABLES:
        model = LstmReference(out_dir / f"lstm_{variable}.json")
        last = max(max(observed[(r, variable)]) for r in regions)
        windows = np.array([[observed[(r, variable)][y] for y in range(last - lookback + 1, last + 1)]
                            for r in regions])
        expected = recursive_forecast(model, windows, horizon, rounds)
        years = range(last + 1, last + 1 + horizon * rounds)
        for i, region in enumerate(regions):
            got = written.get((region, variable), {})
            _require(sorted(got) == list(years),
                     f"forecast.csv {region}/{variable} covers years {sorted(got)[:3]}...")
            for j, year in enumerate(years):
                _close(got[year], expected[i, j], f"forecast.csv {region}/{variable}/{year}")
                checked += 1
        forecasts[variable] = (years, expected)

    for region in regions:
        tmean = observed[(region, "summer_tmean")]
        k_min = float(np.median([tmean[y] - v for y, v in observed[(region, "summer_tmin")].items()]))
        k_max = float(np.median([v - tmean[y] for y, v in observed[(region, "summer_tmax")].items()]))
        _close(offsets[region]["k_min"], k_min, f"offsets.json {region} k_min")
        _close(offsets[region]["k_max"], k_max, f"offsets.json {region} k_max")
        mean_fc = written[(region, "summer_tmean")]
        precip_fc = written[(region, "summer_precip")]
        for year, value in mean_fc.items():
            _close(written[(region, "summer_tmin")][year], value - offsets[region]["k_min"],
                   f"forecast.csv {region}/summer_tmin/{year}")
            _close(written[(region, "summer_tmax")][year], value + offsets[region]["k_max"],
                   f"forecast.csv {region}/summer_tmax/{year}")
        for year, value in precip_fc.items():
            d = days_model["slope"] * max(value, 0.0) + days_model["intercept"]
            _close(written[(region, "summer_precip_days")][year], min(max(d, 0.0), 31.0),
                   f"forecast.csv {region}/summer_precip_days/{year}")
        checked += 4 * len(mean_fc)
    _require(len(written) == 5 * len(regions),
             f"forecast.csv has {len(written)} region/variable series, expected {5 * len(regions)}")
    return checked


PROJECTION_SOURCES = ("summer_tmean", "summer_tmax", "summer_tmin",
                      "summer_precip_days", "summer_precip")


def check_projection(out_dir: Path, regions: Path, years=(2030, 2050)) -> int:
    """projections.csv against a dense forward of the saved model and scalers,
    then percent_change.csv and choropleth.csv recomputed from it."""
    forecast = _series_table(out_dir / "forecast.csv")
    elevation = {r["region_id"]: float(r["elevation_m"]) for r in read_csv(regions)}
    rows = read_csv(out_dir / "projections.csv")
    region_ids = sorted({region for region, _ in forecast})
    _require(len(rows) == len(region_ids) * len(years),
             f"projections.csv has {len(rows)} rows, expected {len(region_ids) * len(years)}")
    for row in rows:
        region, year = row["region_id"], int(row["year"])
        expected = [forecast[(region, v)][year] for v in PROJECTION_SOURCES] + [elevation[region]]
        for name, value in zip(STATION_FIELDS, expected):
            _close(float(row[name]), value, f"projections.csv {region}/{year} {name}")
    log_pred = dense_log_abundance(out_dir, _feature_matrix(rows))
    table = {}
    for row, expected in zip(rows, log_pred):
        key = (row["region_id"], int(row["year"]))
        log10_abundance, abundance = float(row["log10_abundance"]), float(row["abundance"])
        _close(log10_abundance, float(expected), f"projections.csv {key} log10_abundance")
        _close(abundance, 10.0 ** log10_abundance - 1.0, f"projections.csv {key} abundance")
        table[key] = (log10_abundance, abundance)

    start, end = min(years), max(years)
    change_rows = read_csv(out_dir / "percent_change.csv")
    _require(len(change_rows) == len(region_ids), "percent_change.csv row count")
    for row in change_rows:
        v0, v1 = table[(row["region_id"], start)][1], table[(row["region_id"], end)][1]
        _close(float(row[f"abundance_{start}"]), v0, f"percent_change.csv {row['region_id']} start")
        _close(float(row[f"abundance_{end}"]), v1, f"percent_change.csv {row['region_id']} end")
        if v0 == 0:
            _require(row["percent_change"] == "undefined", "percent change of a zero start")
        else:
            _close(float(row["percent_change"]), 100.0 * (v1 - v0) / v0,
                   f"percent_change.csv {row['region_id']}")
    choropleth = read_csv(out_dir / "choropleth.csv")
    _require(len(choropleth) == len(region_ids), "choropleth.csv row count")
    for row in choropleth:
        log10_abundance, abundance = table[(row["region_id"], end)]
        _close(float(row["log10_abundance"]), log10_abundance, f"choropleth.csv {row['region_id']}")
        _close(float(row["abundance"]), abundance, f"choropleth.csv {row['region_id']}")
    return len(rows)
