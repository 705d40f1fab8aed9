"""CSV ingestion and the cleaning rules applied before feature assembly.

The CSV format lives here. Each file has one column table, an ordered
mapping from column name to its kind ``(convert, check, describe)``:
``OBSERVATION_COLUMNS``, ``STATION_COLUMNS`` and ``SERIES_COLUMNS`` for
the inputs, ``FEATURE_COLUMNS`` for ``features.csv`` and, in
``pipeline``, the forecast, region and projection tables. ``open_text``
opens every file the program reads, CSV or JSON, and ``read_rows``
applies the same rules to every CSV: UTF-8 text, a header row naming
each declared column once, no row with more fields than the header,
and in every row each declared field present, non-empty, convertible,
finite if a number, and passing its kind's check. ``csv_text`` yields
a table's header and rows as lines, one at a time, for
``serialize.commit`` to write; ``fmt`` refuses a non-finite number, so
no stage writes a number no stage may read. The annual tables,
``series.csv`` and ``forecast.csv`` (``ANNUAL_COLUMNS``), have their own
codec, ``read_annual`` and ``annual_text``: the same rules and bytes at
about half the cost per row. The row types ``LarvaeObservation``,
``StationRecord`` and ``FeatureRow`` are named tuples built from the
keys of their tables, and ``feature_values`` reads the six features off
a station record or a feature row. ``RegionSeries`` is the one
annual-series type, observed or forecast; ``parse_series`` returns
``series.csv`` as ``{variable: {region_id: RegionSeries}}``, each
variable's regions sorted, the table the climate stages read.

Cleaning is lossless-or-loud: every dropped observation is attributable
to exactly one rule (container filter, duplicate merge, station
proximity) and the counts reconcile with the input row count.
"""

from __future__ import annotations

import csv
import datetime
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from types import SimpleNamespace

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
# A count must convert to a float: log10(count + 1) is what the regressor learns.
COUNT = (int, lambda v: 0 <= v <= sys.float_info.max,
         "count must be non-negative and within float range")
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
# The columns of the annual tables, series.csv and forecast.csv.
ANNUAL_COLUMNS = ("region_id", "variable", "year", "value")
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


# One row type per CSV table, its fields the table's columns in order, so
# ``Type(*values)`` from ``read_rows`` cannot fall out of step with it.
LarvaeObservation = namedtuple("LarvaeObservation", OBSERVATION_COLUMNS)
StationRecord = namedtuple("StationRecord", STATION_COLUMNS)
FeatureRow = namedtuple("FeatureRow", FEATURE_COLUMNS)
# The six features of a StationRecord or FeatureRow, as a tuple in FEATURE_NAMES order.
feature_values = attrgetter(*FEATURE_NAMES)


@dataclass
class RegionSeries:
    """One region's annual values of one variable, observed or forecast;
    ``years`` are consecutive, one per value."""

    region_id: str
    variable: str
    years: list[int]
    values: np.ndarray


@contextmanager
def open_text(path):
    """A text handle on the file at ``path``, the one place a file is opened
    for reading: UTF-8, a leading byte-order mark skipped, line endings kept
    for ``csv``. A missing path or a directory is a DataError; text that is
    not UTF-8, and any ParseError or ``csv.Error`` raised while the file is
    open, is a ParseError prefixed with the path."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise DataError(f"input file not found: {path}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ParseError, csv.Error) as exc:  # csv.Error: a field over csv.field_size_limit()
            raise ParseError(f"{path}: {exc}") from None


def read_rows(path, columns: dict):
    """Yield ``(row_number, values)`` for each data row of ``path``, with
    the values converted and checked in the order of ``columns``. The row
    number is the row's (last) line in the file, blank lines included."""
    with open_text(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file, header row required")
        missing = [col for col in columns if col not in header]
        if missing:
            raise ParseError(f"missing columns {missing}")
        for col in columns:
            if header.count(col) > 1:
                raise ParseError(f"column '{col}' repeats in the header")
        spec = [(header.index(col), col, convert, convert is float, check, describe)
                for col, (convert, check, describe) in columns.items()]
        width = len(header)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) > width:
                raise ParseError(f"row {line}: {len(row)} fields, header has {width}")
            if len(row) < width:
                row += [""] * (width - len(row))
            values = []
            for i, col, convert, finite, check, describe in spec:
                raw = row[i]
                if not raw:
                    raise ParseError(f"row {line}: column '{col}' is empty")
                try:
                    value = convert(raw)
                except ValueError:
                    raise ParseError(f"row {line}: column '{col}': cannot parse {raw!r}") from None
                if finite and not math.isfinite(value):
                    raise ParseError(f"row {line}: column '{col}': value must be finite: {raw!r}")
                if check is not None and not check(value):
                    raise ParseError(f"row {line}: column '{col}': {describe}: {raw!r}")
                values.append(value)
            yield line, values


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


def read_annual(path, columns: dict) -> dict:
    """``read_table(path, columns, ...)`` of an annual table, ``{region_id:
    {variable: {year: value}}}``, for a column table of ``ANNUAL_COLUMNS``
    whose ``variable`` kind may have a check. Each row is unpacked in one
    step and checked inline; at the first row that is not clean the file
    is closed and read again by ``read_table``, which returns the same
    table or raises the error ``read_rows`` defines for that row."""
    with open_text(path) as handle:
        table = _clean_annual(csv.reader(handle), columns)
    if table is None:  # outside open_text, which would prefix the path again
        return read_table(path, columns, lambda v: v[:3], lambda v: v[3])
    return table


def _clean_annual(reader, columns: dict) -> dict | None:
    """The annual table of a clean ``reader``, or None at its first row
    that ``read_rows`` might refuse or treat otherwise."""
    header = next(reader, None)
    if header is None or any(header.count(col) != 1 for col in ANNUAL_COLUMNS):
        return None
    width = len(header)
    pick = itemgetter(*map(header.index, ANNUAL_COLUMNS))
    known = columns["variable"][1] or bool  # the variable's check, once per series
    isfinite = math.isfinite
    table: dict = {}
    region = variable = None
    try:
        for row in reader:
            if len(row) != width:
                if row:
                    return None
                continue  # a blank line
            key_region, key_variable, year, value = pick(row)
            if key_region != region or key_variable != variable:
                region, variable = key_region, key_variable
                if not region or not known(variable):
                    return None
                by_year = table.setdefault(region, {}).setdefault(variable, {})
            year = int(year)
            value = float(value)
            if year in by_year or not isfinite(value):
                return None
            by_year[year] = value
    except ValueError:  # an empty or malformed year or value
        return None
    return table


def fmt(value) -> str:
    """A number as written to CSV: the shortest text that reads back
    exactly. A non-finite number is a DataError: no stage may read it."""
    value = float(value)
    if not math.isfinite(value):
        raise DataError(f"cannot write a non-finite number: {value!r}")
    return repr(value)


def _line_writer():
    """``csv.writer``'s ``writerow``, returning each line instead of writing it."""
    return csv.writer(SimpleNamespace(write=lambda line: line)).writerow


def csv_text(columns, rows):
    """Yield the lines of a CSV file, each as it is needed: the header
    ``columns`` (names, or a column table), then one line per row."""
    writerow = _line_writer()
    yield writerow(columns)
    yield from map(writerow, rows)


def annual_text(series):
    """Yield the text of an annual table of ``series`` (``RegionSeries``,
    in the order given), the bytes ``csv_text`` writes for their rows with
    ``fmt``: the header line, then one block of lines per series. Each
    series' key is quoted once; a series with a non-finite value is a
    DataError naming it and the year."""
    writerow = _line_writer()
    yield writerow(ANNUAL_COLUMNS)
    for s in series:
        finite = np.isfinite(s.values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataError(f"series {s.region_id}/{s.variable}, year {s.years[i]}: "
                            f"cannot write a non-finite number: {float(s.values[i])!r}")
        key = writerow((s.region_id, s.variable))[:-2]  # less the line terminator
        yield "".join([f"{key},{year},{value!r}\r\n"
                       for year, value in zip(s.years, s.values.tolist())])


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


def parse_series(path) -> dict[str, dict[str, RegionSeries]]:
    """The annual series of ``path`` as ``{variable: {region_id: series}}``,
    each variable's regions in sorted order. A region, variable and year
    that repeat are a duplicate key (see ``read_table``); a series' years
    must be consecutive."""
    points = read_annual(path, SERIES_COLUMNS)
    if not points:
        raise DataError(f"{path}: no series found")
    table: dict[str, dict[str, RegionSeries]] = {}
    for region_id, variables in points.items():
        for variable, by_year in variables.items():
            years = sorted(by_year)
            for a, b in zip(years, years[1:]):
                if b != a + 1:
                    raise DataError(
                        f"{path}: series {region_id}/{variable} has non-consecutive "
                        f"years {a} -> {b}"
                    )
            table.setdefault(variable, {})[region_id] = RegionSeries(
                region_id=region_id,
                variable=variable,
                years=years,
                values=np.array([by_year[year] for year in years]),
            )
    return {variable: dict(sorted(regions.items())) for variable, regions in table.items()}


def filter_container_sources(
    observations: list[LarvaeObservation],
) -> list[LarvaeObservation]:
    """Drop container (ovitrap) records; order of the rest is preserved."""
    return [obs for obs in observations if obs.water_source != "container"]


def merge_duplicates(observations: list[LarvaeObservation]) -> list[LarvaeObservation]:
    """Collapse same-location same-date records into one, summing counts.

    Output is sorted by (location_id, date) for deterministic downstream
    processing. A sum beyond float range is a DataError naming the location
    and the date.
    """
    grouped: dict[tuple[str, datetime.date], LarvaeObservation] = {}
    for obs in observations:
        key = (obs.location_id, obs.date)
        seen = grouped.get(key)
        if seen is None:
            grouped[key] = obs
        else:
            count = seen.larvae_count + obs.larvae_count
            if count > sys.float_info.max:
                raise DataError(f"merged larvae count of location {obs.location_id!r} "
                                f"on {obs.date} is beyond float range")
            grouped[key] = seen._replace(larvae_count=count)
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
    rows = [FeatureRow(obs.location_id, obs.date, station.month, *feature_values(station),
                       obs.larvae_count)
            for obs, station in zip(observations, nearest) if station is not None]
    return rows, len(observations) - len(rows)
