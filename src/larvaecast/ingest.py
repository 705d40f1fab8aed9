"""CSV ingestion and the cleaning rules applied before feature assembly.

The CSV format lives here. Each file has one column table, an ordered
mapping from column name to its kind ``(convert, check, describe)``:
``OBSERVATION_COLUMNS``, ``STATION_COLUMNS``, ``SERIES_COLUMNS`` and
``REGION_COLUMNS`` for the inputs, ``FEATURE_COLUMNS``,
``FORECAST_COLUMNS`` and ``PROJECTION_COLUMNS`` for the artifacts.
``open_text`` opens every file the program reads, CSV or JSON; ``read_rows``
applies the same rules to every CSV: UTF-8 text, a header row naming
each declared column once, no row with more fields than the header,
and in every row each declared field present, non-empty, convertible,
finite if a number, and passing its kind's check; given the table's key, at
least one row and no key twice. ``csv_text`` yields a table's header and
rows as lines, one at a time, for ``serialize.commit`` to write; ``fmt``
refuses a non-finite number, so no stage writes a number no stage may read.
The annual tables, ``series.csv`` and ``forecast.csv`` (``ANNUAL_COLUMNS``),
have their own codec, ``read_annual`` and ``annual_text``: the same rules
and bytes at about half the cost per row. The row types
``LarvaeObservation``, ``StationRecord`` and ``FeatureRow`` are named tuples
built from the keys of their tables, and ``feature_values`` reads the six
features off a station record or a feature row. ``RegionSeries`` is the one
annual-series type, observed or forecast; ``parse_series`` returns
``series.csv`` as ``{variable: {region_id: RegionSeries}}``, each variable's
regions sorted, the table the climate stages read.

``join_nearest_station`` pairs each observation with its nearest
same-month station, measuring each block of observations only against
the stations within reach of its latitudes, and ``feature_text`` writes
those pairs as ``features.csv``: ``csv_text``'s bytes, with each
station's features formatted once.

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
SERIES_COLUMNS = {
    "region_id": TEXT,
    "variable": (str, lambda v: v in SERIES_VARIABLES, "unknown series variable"),
    "year": YEAR,
    "value": NUMBER,
}
# forecast.csv holds the derived variables too, so any variable name.
FORECAST_COLUMNS = {**SERIES_COLUMNS, "variable": TEXT}
# The columns of the annual tables, series.csv and forecast.csv.
ANNUAL_COLUMNS = tuple(SERIES_COLUMNS)
REGION_COLUMNS = {"region_id": TEXT, "elevation_m": NUMBER}
FEATURE_COLUMNS = {
    "location_id": TEXT,
    "date": DATE,
    "month": MONTH,
    **dict.fromkeys(FEATURE_NAMES, NUMBER),
    "larvae_count": COUNT,
}
PROJECTION_COLUMNS = {
    "region_id": TEXT,
    "year": YEAR,
    "log10_abundance": NUMBER,
    "abundance": NUMBER,
    **dict.fromkeys(FEATURE_NAMES, NUMBER),
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


def read_rows(path, columns: dict, key=()):
    """Yield ``(row_number, values)`` for each data row of ``path``, with
    the values converted and checked in the order of ``columns``. The row
    number is the row's (last) line in the file, blank lines included.
    With ``key``, column names, the table must hold a row and no key twice."""
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
        pick = key and itemgetter(*map(list(columns).index, key))
        first: dict = {}  # key -> the row it first appears on
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
            if key and (seen := first.setdefault(pick(values), line)) != line:
                k = "/".join(str(values[list(columns).index(col)]) for col in key)
                raise ParseError(f"row {line}: duplicate key {k}, first at row {seen}")
            yield line, values
        if key and not first:
            raise ParseError("no data row, at least one required")


def read_table(path, columns: dict, key, value) -> dict:
    """Nested dicts ``table[k1]...[kn] = value(values)`` over the rows of
    ``path``, by the ``key`` columns ``(k1, ..., kn)``; ``read_rows``
    refuses a repeated key and an empty table."""
    at = [list(columns).index(col) for col in key]
    table: dict = {}
    for _, values in read_rows(path, columns, key):
        level = table
        for i in at[:-1]:
            level = level.setdefault(values[i], {})
        level[values[at[-1]]] = value(values)
    return table


def read_annual(path, columns: dict) -> dict:
    """``read_table(path, columns, ...)`` of an annual table, ``{region_id:
    {variable: {year: value}}}``, for a column table of ``ANNUAL_COLUMNS``
    whose ``variable`` kind may have a check. Each row is unpacked in one
    step and checked inline; at the first row that is not clean, or on an
    empty table, the file is closed and read again by ``read_table``, which
    returns the same table or raises the error ``read_rows`` defines."""
    with open_text(path) as handle:
        table = _clean_annual(csv.reader(handle), columns)
    if not table:  # outside open_text, which would prefix the path again
        return read_table(path, columns, ANNUAL_COLUMNS[:3], itemgetter(3))
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
    """The records of ``path``, keyed by (station_id, month)."""
    out = []
    for line, values in read_rows(path, STATION_COLUMNS, ("station_id", "month")):
        record = StationRecord(*values)
        if not (record.tmin_c <= record.tmean_c <= record.tmax_c):
            raise ParseError(f"{path}: row {line}: temperature ordering violated "
                             "(tmin <= tmean <= tmax required)")
        out.append(record)
    return out


def parse_features(path) -> list[FeatureRow]:
    return [FeatureRow(*v) for _, v in read_rows(path, FEATURE_COLUMNS, ("location_id", "date"))]


def parse_regions(path) -> dict[str, float]:
    """``{region_id: elevation_m}``."""
    return read_table(path, REGION_COLUMNS, ("region_id",), itemgetter(1))


def parse_projections(path) -> dict[str, dict[int, dict[str, float]]]:
    return read_table(path, PROJECTION_COLUMNS, ("region_id", "year"),
                      lambda v: {"log10_abundance": v[2], "abundance": v[3]})


def parse_series(path) -> dict[str, dict[str, RegionSeries]]:
    """The annual series of ``path`` as ``{variable: {region_id: series}}``,
    each variable's regions in sorted order. A region, variable and year
    that repeat are a duplicate key (see ``read_rows``); a series' years
    must be consecutive."""
    points = read_annual(path, SERIES_COLUMNS)
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


def _require_coordinates(lat1, lon1, lat2, lon2) -> None:
    """Raise DomainError at the first latitude, then longitude, out of
    range in the arrays given, NaN included."""
    for values, bound, name in ((lat1, 90, "latitude"), (lat2, 90, "latitude"),
                                (lon1, 180, "longitude"), (lon2, 180, "longitude")):
        inside = np.abs(values) <= bound  # False for NaN
        if not inside.all():
            raise DomainError(f"{name} out of range: {values[~inside].flat[0]}")


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers (Earth radius 6371 km) between
    points in degrees; the arguments broadcast like numpy arrays. Any
    coordinate out of range, NaN included, is a DomainError."""
    lat1, lon1, lat2, lon2 = (np.asarray(x, dtype=float) for x in (lat1, lon1, lat2, lon2))
    _require_coordinates(lat1, lon1, lat2, lon2)
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    # s * s, not s ** 2: a numpy scalar's pow can be an ulp off an array's square.
    half_dphi, half_dlam = np.sin(dphi / 2), np.sin(dlam / 2)
    a = half_dphi * half_dphi + np.cos(phi1) * np.cos(phi2) * (half_dlam * half_dlam)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


# Observations per haversine call: a month's whole (observations, stations)
# matrix would raise prepare's peak memory; 64-row blocks keep it flat.
JOIN_BLOCK = 64
# Degrees added to a block's latitude reach (about 1 m), far more than
# haversine_km's rounding, so a station at exactly max_km stays a candidate.
REACH_MARGIN_DEG = 1e-5


def join_nearest_station(
    observations: list[LarvaeObservation],
    stations: list[StationRecord],
    max_km: float = DEFAULT_MAX_STATION_KM,
) -> tuple[list[tuple[LarvaeObservation, StationRecord]], int]:
    """Pair each observation with the nearest same-month station within max_km.

    Returns ``(matches, dropped)``: the ``(observation, station)`` pairs in
    observation order, and the count of observations with no qualifying
    station, which are dropped. Ties break on station_id so the result
    does not depend on station file order.

    Within a month the observations are taken in latitude order,
    ``JOIN_BLOCK`` at a time, and a block is measured only against the
    stations whose latitude lies within ``max_km`` of the block's latitude
    range: a great-circle distance is at least the Earth's radius times the
    latitude difference, so no other station can qualify.
    """
    if not max_km > 0:
        raise DomainError(f"max_km must be positive: {max_km}")
    reach = math.degrees(max_km / EARTH_RADIUS_KM) + REACH_MARGIN_DEG
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
        obs_lat = np.array([observations[i].latitude for i in indices])
        obs_lon = np.array([observations[i].longitude for i in indices])
        _require_coordinates(obs_lat, obs_lon, station_lat, station_lon)  # NaN would upset the sort
        order = np.argsort(obs_lat, kind="stable")
        for start in range(0, len(order), JOIN_BLOCK):
            block = order[start : start + JOIN_BLOCK]
            lat = obs_lat[block]
            # The mask keeps station_id order, so argmin still breaks ties on it.
            near = (station_lat >= lat[0] - reach) & (station_lat <= lat[-1] + reach)
            if not near.any():
                continue
            d = haversine_km(lat[:, None], obs_lon[block][:, None],
                             station_lat[near], station_lon[near])
            best = d.argmin(axis=1)  # the first minimum: the smaller station_id
            within = d[np.arange(len(best)), best] <= max_km
            chosen = np.flatnonzero(near)[best].tolist()
            for k, j, ok in zip(block.tolist(), chosen, within.tolist()):
                if ok:
                    nearest[indices[k]] = candidates[j]
    matches = [(obs, station) for obs, station in zip(observations, nearest)
               if station is not None]
    return matches, len(observations) - len(matches)


# Lines per streamed block of features.csv text.
FEATURE_BLOCK = 1024


def feature_text(matches):
    """Yield the text of ``features.csv`` for ``join_nearest_station``'s
    ``(observation, station)`` pairs, in order: the bytes ``csv_text``
    writes for ``FEATURE_COLUMNS`` with the six features by ``fmt``, as the
    header line and then blocks of up to ``FEATURE_BLOCK`` lines. A
    location_id is quoted once per run of rows that share it, and a
    station's month and features are written once, keyed by the station
    object, not by its values (``0.0 == -0.0``)."""
    writerow = _line_writer()
    yield writerow(FEATURE_COLUMNS)
    # id(station) -> (station, its text); holding the station keeps its id from being reused.
    written: dict[int, tuple[StationRecord, str]] = {}
    location = key = None
    lines = []
    for obs, station in matches:
        if obs.location_id != location:
            location = obs.location_id
            # Quoted with a field after it: csv quotes an empty field only when it is alone.
            key = writerow((location, ""))[:-3]
        seen = written.get(id(station))
        if seen is None:
            seen = written[id(station)] = (station, writerow(
                (station.month, *map(fmt, feature_values(station))))[:-2])
        lines.append(f"{key},{obs.date.isoformat()},{seen[1]},{int(obs.larvae_count)}\r\n")
        if len(lines) == FEATURE_BLOCK:
            yield "".join(lines)
            lines = []
    if lines:
        yield "".join(lines)
