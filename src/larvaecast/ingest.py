"""CSV ingestion and the cleaning rules applied before feature assembly.

Input formats (header row mandatory, UTF-8, plain decimal numbers):

* observations.csv: location_id,latitude,longitude,date,water_source,larvae_count
* stations.csv: station_id,latitude,longitude,month,tmean_c,tmax_c,tmin_c,
  precip_days,precip_mm,elevation_m
* series.csv: region_id,variable,year,value

Cleaning is lossless-or-loud: every dropped observation is attributable
to exactly one rule (container filter, duplicate merge, station
proximity) and the counts reconcile with the input row count.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, ParseError

EARTH_RADIUS_KM = 6371.0
DEFAULT_MAX_STATION_KM = 48.28  # 30 miles

WATER_SOURCES = ("still", "flowing", "container")
SERIES_VARIABLES = (
    "summer_tmean",
    "summer_tmin",
    "summer_tmax",
    "summer_precip",
)
FEATURE_NAMES = (
    "tmean_c",
    "tmax_c",
    "tmin_c",
    "precip_days",
    "precip_mm",
    "elevation_m",
)


@dataclass(frozen=True)
class LarvaeObservation:
    location_id: str
    latitude: float
    longitude: float
    date: datetime.date
    water_source: str
    larvae_count: int


@dataclass(frozen=True)
class StationRecord:
    station_id: str
    latitude: float
    longitude: float
    month: str  # YYYY-MM
    tmean_c: float
    tmax_c: float
    tmin_c: float
    precip_days: float
    precip_mm: float
    elevation_m: float


@dataclass(frozen=True)
class FeatureRow:
    """One training example: six features plus the larvae-count target."""

    location_id: str
    date: datetime.date
    month: str
    tmean_c: float
    tmax_c: float
    tmin_c: float
    precip_days: float
    precip_mm: float
    elevation_m: float
    larvae_count: int

    def features(self) -> np.ndarray:
        return np.array(
            [
                self.tmean_c,
                self.tmax_c,
                self.tmin_c,
                self.precip_days,
                self.precip_mm,
                self.elevation_m,
            ]
        )


@dataclass
class RegionSeries:
    region_id: str
    variable: str
    years: list[int]
    values: np.ndarray


def _open_rows(path, required: tuple[str, ...]):
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        try:
            header = reader.fieldnames
            if header is None:
                raise ParseError(f"{path}: empty file, header row required")
            missing = [col for col in required if col not in header]
            if missing:
                raise ParseError(f"{path}: missing columns {missing}")
            for line, row in enumerate(reader, start=2):
                yield line, row
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _field(path, line, row, col, convert, check=None, describe=""):
    raw = row.get(col)
    if raw is None or raw == "":
        raise ParseError(f"{path}: row {line}: column '{col}' is empty")
    try:
        value = convert(raw)
    except (ValueError, TypeError):
        raise ParseError(
            f"{path}: row {line}: column '{col}': cannot parse {raw!r}"
        ) from None
    if check is not None and not check(value):
        raise ParseError(f"{path}: row {line}: column '{col}': {describe}: {raw!r}")
    return value


def _finite(path, line, row, col) -> float:
    return _field(path, line, row, col, float, math.isfinite, "value must be finite")


def read_table(path, required: tuple[str, ...], key, value) -> dict:
    """Nested dicts ``table[k1]...[kn] = value(line, row)`` for
    ``(k1, ..., kn) = key(line, row)`` over the rows of ``path``; a key
    that repeats is a ParseError naming it and both rows."""
    table: dict = {}
    for line, row in _open_rows(path, required):
        k = key(line, row)
        level = table
        for part in k[:-1]:
            level = level.setdefault(part, {})
        if k[-1] in level:
            # Found again on this error path, so a clean read keeps no row numbers.
            first = next(n for n, r in _open_rows(path, required) if key(n, r) == k)
            raise ParseError(f"{path}: row {line}: duplicate key "
                             f"{'/'.join(map(str, k))}, first at row {first}")
        level[k[-1]] = value(line, row)
    return table


def parse_observations(path) -> list[LarvaeObservation]:
    required = (
        "location_id",
        "latitude",
        "longitude",
        "date",
        "water_source",
        "larvae_count",
    )
    out = []
    for line, row in _open_rows(path, required):
        out.append(
            LarvaeObservation(
                location_id=row["location_id"],
                latitude=_field(
                    path, line, row, "latitude", float,
                    lambda v: -90 <= v <= 90, "latitude out of range",
                ),
                longitude=_field(
                    path, line, row, "longitude", float,
                    lambda v: -180 <= v <= 180, "longitude out of range",
                ),
                date=_field(path, line, row, "date", datetime.date.fromisoformat),
                water_source=_field(
                    path, line, row, "water_source", str,
                    lambda v: v in WATER_SOURCES, "unknown water source",
                ),
                larvae_count=_field(
                    path, line, row, "larvae_count", int,
                    lambda v: v >= 0, "count must be non-negative",
                ),
            )
        )
    return out


def _month_str(raw: str) -> str:
    parts = raw.split("-")
    if len(parts) != 2:
        raise ValueError(raw)
    year, month = int(parts[0]), int(parts[1])
    if not (1 <= month <= 12):
        raise ValueError(raw)
    return f"{year:04d}-{month:02d}"


def parse_stations(path) -> list[StationRecord]:
    required = (
        "station_id",
        "latitude",
        "longitude",
        "month",
        "tmean_c",
        "tmax_c",
        "tmin_c",
        "precip_days",
        "precip_mm",
        "elevation_m",
    )
    out = []
    for line, row in _open_rows(path, required):
        record = StationRecord(
            station_id=row["station_id"],
            latitude=_field(
                path, line, row, "latitude", float,
                lambda v: -90 <= v <= 90, "latitude out of range",
            ),
            longitude=_field(
                path, line, row, "longitude", float,
                lambda v: -180 <= v <= 180, "longitude out of range",
            ),
            month=_field(path, line, row, "month", _month_str),
            tmean_c=_finite(path, line, row, "tmean_c"),
            tmax_c=_finite(path, line, row, "tmax_c"),
            tmin_c=_finite(path, line, row, "tmin_c"),
            precip_days=_field(
                path, line, row, "precip_days", float,
                lambda v: 0 <= v <= 31, "days of precipitation out of range",
            ),
            precip_mm=_field(
                path, line, row, "precip_mm", float,
                lambda v: v >= 0, "precipitation must be non-negative",
            ),
            elevation_m=_finite(path, line, row, "elevation_m"),
        )
        if not (record.tmin_c <= record.tmean_c <= record.tmax_c):
            raise ParseError(
                f"{path}: row {line}: temperature ordering violated "
                f"(tmin <= tmean <= tmax required)"
            )
        out.append(record)
    return out


def parse_series(path) -> list[RegionSeries]:
    required = ("region_id", "variable", "year", "value")
    grouped: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for line, row in _open_rows(path, required):
        variable = _field(
            path, line, row, "variable", str,
            lambda v: v in SERIES_VARIABLES, "unknown series variable",
        )
        year = _field(path, line, row, "year", int)
        value = _finite(path, line, row, "value")
        grouped.setdefault((row["region_id"], variable), []).append((year, value))
    out = []
    for (region_id, variable), points in grouped.items():
        points.sort()
        years = [y for y, _ in points]
        for a, b in zip(years, years[1:]):
            if b != a + 1:
                raise DataError(
                    f"{path}: series {region_id}/{variable} has non-consecutive "
                    f"years {a} -> {b}"
                )
        out.append(
            RegionSeries(
                region_id=region_id,
                variable=variable,
                years=years,
                values=np.array([v for _, v in points]),
            )
        )
    return out


def filter_container_sources(
    observations: list[LarvaeObservation],
) -> list[LarvaeObservation]:
    """Drop container (ovitrap) records; order of the rest is preserved."""
    return [obs for obs in observations if obs.water_source != "container"]


def merge_duplicates(observations: list[LarvaeObservation]) -> list[LarvaeObservation]:
    """Collapse same-location same-date records into one, summing counts.

    Output is sorted by (location_id, date) for deterministic downstream
    processing.
    """
    grouped: dict[tuple[str, datetime.date], LarvaeObservation] = {}
    for obs in observations:
        key = (obs.location_id, obs.date)
        seen = grouped.get(key)
        if seen is None:
            grouped[key] = obs
        else:
            grouped[key] = LarvaeObservation(
                location_id=seen.location_id,
                latitude=seen.latitude,
                longitude=seen.longitude,
                date=seen.date,
                water_source=seen.water_source,
                larvae_count=seen.larvae_count + obs.larvae_count,
            )
    return [grouped[key] for key in sorted(grouped)]


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers (Earth radius 6371 km)."""
    for lat in (lat1, lat2):
        if not -90 <= lat <= 90:
            raise DomainError(f"latitude out of range: {lat}")
    for lon in (lon1, lon2):
        if not -180 <= lon <= 180:
            raise DomainError(f"longitude out of range: {lon}")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def join_nearest_station(
    observations: list[LarvaeObservation],
    stations: list[StationRecord],
    max_km: float = DEFAULT_MAX_STATION_KM,
) -> tuple[list[FeatureRow], int]:
    """Join each observation to the nearest same-month station within max_km.

    Observations with no qualifying station are dropped; the count of
    drops is returned alongside the joined rows. Ties break on
    station_id so the result does not depend on station file order.
    """
    if max_km <= 0:
        raise DomainError("max_km must be positive")
    by_month: dict[str, list[StationRecord]] = {}
    for station in stations:
        by_month.setdefault(station.month, []).append(station)
    rows: list[FeatureRow] = []
    dropped = 0
    for obs in observations:
        month = f"{obs.date.year:04d}-{obs.date.month:02d}"
        best = None
        for station in by_month.get(month, []):
            d = haversine_km(obs.latitude, obs.longitude, station.latitude, station.longitude)
            key = (d, station.station_id)
            if d <= max_km and (best is None or key < best[0]):
                best = (key, station)
        if best is None:
            dropped += 1
            continue
        station = best[1]
        rows.append(
            FeatureRow(
                location_id=obs.location_id,
                date=obs.date,
                month=month,
                tmean_c=station.tmean_c,
                tmax_c=station.tmax_c,
                tmin_c=station.tmin_c,
                precip_days=station.precip_days,
                precip_mm=station.precip_mm,
                elevation_m=station.elevation_m,
                larvae_count=obs.larvae_count,
            )
        )
    return rows, dropped
