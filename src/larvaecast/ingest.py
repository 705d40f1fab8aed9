"""CSV ingestion and the cleaning rules applied before feature assembly.

The CSV format lives here. Each file has one column table, an ordered
mapping from column name to its kind ``(convert, check, describe)``:
``OBSERVATION_COLUMNS``, ``STATION_COLUMNS`` and ``SERIES_COLUMNS`` for
the inputs, ``FEATURE_COLUMNS`` for ``features.csv`` and, in
``pipeline``, the forecast, region and projection tables. ``read_rows``
applies the same rules to every file: UTF-8 text, a header row naming
each declared column once, no row with more fields than the header,
and in every row each declared field present, non-empty, convertible,
finite if a number, and passing its kind's check. ``write_csv`` writes
a table's header and rows.

Cleaning is lossless-or-loud: every dropped observation is attributable
to exactly one rule (container filter, duplicate merge, station
proximity) and the counts reconcile with the input row count.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, ParseError
from .serialize import atomic_open

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


def _month_str(raw: str) -> str:
    parts = raw.split("-")
    if len(parts) != 2:
        raise ValueError(raw)
    year, month = int(parts[0]), int(parts[1])
    if not (1 <= month <= 12):
        raise ValueError(raw)
    return f"{year:04d}-{month:02d}"


# Column kinds: (convert, check or None, what a failed check means).
TEXT = (str, None, "")
NUMBER = (float, None, "")
YEAR = (int, None, "")
DATE = (datetime.date.fromisoformat, None, "")
MONTH = (_month_str, None, "")
COUNT = (int, lambda v: v >= 0, "count must be non-negative")
LATITUDE = (float, lambda v: -90 <= v <= 90, "latitude out of range")
LONGITUDE = (float, lambda v: -180 <= v <= 180, "longitude out of range")

OBSERVATION_COLUMNS = {
    "location_id": TEXT,
    "latitude": LATITUDE,
    "longitude": LONGITUDE,
    "date": DATE,
    "water_source": (str, lambda v: v in WATER_SOURCES, "unknown water source"),
    "larvae_count": COUNT,
}
STATION_COLUMNS = {
    "station_id": TEXT,
    "latitude": LATITUDE,
    "longitude": LONGITUDE,
    "month": MONTH,
    "tmean_c": NUMBER,
    "tmax_c": NUMBER,
    "tmin_c": NUMBER,
    "precip_days": (float, lambda v: 0 <= v <= 31, "days of precipitation out of range"),
    "precip_mm": (float, lambda v: v >= 0, "precipitation must be non-negative"),
    "elevation_m": NUMBER,
}
SERIES_COLUMNS = {
    "region_id": TEXT,
    "variable": (str, lambda v: v in SERIES_VARIABLES, "unknown series variable"),
    "year": YEAR,
    "value": NUMBER,
}
FEATURE_COLUMNS = {
    "location_id": TEXT,
    "date": DATE,
    "month": MONTH,
    **dict.fromkeys(FEATURE_NAMES, NUMBER),
    "larvae_count": COUNT,
}


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


def read_rows(path, columns: dict):
    """Yield ``(row_number, values)`` for each data row of ``path``, with
    the values converted and checked in the order of ``columns``. The row
    number is the row's (last) line in the file, blank lines included."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, header row required")
            missing = [col for col in columns if col not in header]
            if missing:
                raise ParseError(f"{path}: missing columns {missing}")
            for col in columns:
                if header.count(col) > 1:
                    raise ParseError(f"{path}: column '{col}' repeats in the header")
            spec = [(header.index(col), col, convert, convert is float, check, describe)
                    for col, (convert, check, describe) in columns.items()]
            width = len(header)
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) > width:
                    raise ParseError(
                        f"{path}: row {line}: {len(row)} fields, header has {width}"
                    )
                if len(row) < width:
                    row += [""] * (width - len(row))
                values = []
                for i, col, convert, finite, check, describe in spec:
                    raw = row[i]
                    if not raw:
                        raise ParseError(f"{path}: row {line}: column '{col}' is empty")
                    try:
                        value = convert(raw)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {line}: column '{col}': cannot parse {raw!r}"
                        ) from None
                    if finite and not math.isfinite(value):
                        raise ParseError(
                            f"{path}: row {line}: column '{col}': value must be finite: {raw!r}"
                        )
                    if check is not None and not check(value):
                        raise ParseError(
                            f"{path}: row {line}: column '{col}': {describe}: {raw!r}"
                        )
                    values.append(value)
                yield line, values
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ParseError(f"{path}: {exc}") from None


def read_table(path, columns: dict, key, value) -> dict:
    """Nested dicts ``table[k1]...[kn] = value(values)`` for
    ``(k1, ..., kn) = key(values)`` over the rows of ``path``; a key
    that repeats is a ParseError naming it and both rows."""
    table: dict = {}
    for line, values in read_rows(path, columns):
        k = key(values)
        level = table
        for part in k[:-1]:
            level = level.setdefault(part, {})
        if k[-1] in level:
            # Found again on this error path, so a clean read keeps no row numbers.
            first = next(n for n, v in read_rows(path, columns) if key(v) == k)
            raise ParseError(f"{path}: row {line}: duplicate key "
                             f"{'/'.join(map(str, k))}, first at row {first}")
        level[k[-1]] = value(values)
    return table


def fmt(value) -> str:
    """A number as written to CSV: the shortest text that reads back exactly."""
    return repr(float(value))


def write_csv(path, columns, rows) -> None:
    """Write the header ``columns`` (names, or a column table) and then
    ``rows``, replacing ``path`` only once every row is written."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def parse_observations(path) -> list[LarvaeObservation]:
    return [LarvaeObservation(*values) for _, values in read_rows(path, OBSERVATION_COLUMNS)]


def parse_stations(path) -> list[StationRecord]:
    out = []
    for line, values in read_rows(path, STATION_COLUMNS):
        record = StationRecord(*values)
        if not (record.tmin_c <= record.tmean_c <= record.tmax_c):
            raise ParseError(
                f"{path}: row {line}: temperature ordering violated "
                f"(tmin <= tmean <= tmax required)"
            )
        out.append(record)
    return out


def parse_series(path) -> list[RegionSeries]:
    grouped: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for _, (region_id, variable, year, value) in read_rows(path, SERIES_COLUMNS):
        grouped.setdefault((region_id, variable), []).append((year, value))
    if not grouped:
        raise DataError(f"{path}: no series found")
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
            grouped[key] = replace(seen, larvae_count=seen.larvae_count + obs.larvae_count)
    return [grouped[key] for key in sorted(grouped)]


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers (Earth radius 6371 km) between
    points in degrees; the arguments broadcast like numpy arrays. Any
    coordinate out of range, NaN included, is a DomainError."""
    lat1, lon1, lat2, lon2 = (np.asarray(x, dtype=float) for x in (lat1, lon1, lat2, lon2))
    for values, bound, name in ((lat1, 90, "latitude"), (lat2, 90, "latitude"),
                                (lon1, 180, "longitude"), (lon2, 180, "longitude")):
        inside = np.abs(values) <= bound  # False for NaN
        if not inside.all():
            raise DomainError(f"{name} out of range: {values[~inside].flat[0]}")
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


# Observations per haversine call: a month's whole (observations, stations)
# matrix would raise prepare's peak memory; 64-row blocks keep it flat.
JOIN_BLOCK = 64


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
    if not max_km > 0:
        raise DomainError(f"max_km must be positive: {max_km}")
    by_month: dict[str, list[StationRecord]] = {}
    for station in sorted(stations, key=lambda s: s.station_id):
        by_month.setdefault(station.month, []).append(station)
    obs_by_month: dict[str, list[int]] = {}
    for i, obs in enumerate(observations):
        obs_by_month.setdefault(f"{obs.date.year:04d}-{obs.date.month:02d}", []).append(i)
    nearest: list[StationRecord | None] = [None] * len(observations)
    for month, indices in obs_by_month.items():
        candidates = by_month.get(month)
        if not candidates:
            continue
        station_lat = np.array([s.latitude for s in candidates])
        station_lon = np.array([s.longitude for s in candidates])
        obs_lat = np.array([observations[i].latitude for i in indices])[:, None]
        obs_lon = np.array([observations[i].longitude for i in indices])[:, None]
        for start in range(0, len(indices), JOIN_BLOCK):
            block = slice(start, start + JOIN_BLOCK)
            d = haversine_km(obs_lat[block], obs_lon[block], station_lat, station_lon)
            best = d.argmin(axis=1)  # the first minimum: the smaller station_id
            within = d[np.arange(len(best)), best] <= max_km
            for i, j, ok in zip(indices[block], best.tolist(), within.tolist()):
                if ok:
                    nearest[i] = candidates[j]
    rows = [
        FeatureRow(
            location_id=obs.location_id,
            date=obs.date,
            month=station.month,
            tmean_c=station.tmean_c,
            tmax_c=station.tmax_c,
            tmin_c=station.tmin_c,
            precip_days=station.precip_days,
            precip_mm=station.precip_mm,
            elevation_m=station.elevation_m,
            larvae_count=obs.larvae_count,
        )
        for obs, station in zip(observations, nearest)
        if station is not None
    ]
    return rows, len(observations) - len(rows)
