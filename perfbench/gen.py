"""Seeded input generators for the scaled workloads.

Every generator returns what it planted alongside the file paths, so the
checks compare the program's outputs with facts known by construction
rather than with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OBS_HEADER = ["location_id", "latitude", "longitude", "date", "water_source", "larvae_count"]
STATION_HEADER = [
    "station_id", "latitude", "longitude", "month",
    "tmean_c", "tmax_c", "tmin_c", "precip_days", "precip_mm", "elevation_m",
]
STATION_FIELDS = STATION_HEADER[4:]

# Stations sit on a grid this coarse, so a site placed within
# SITE_JITTER_DEG of its home station is ~15 km from it and >150 km from
# every other station, and a site at a cell centre is >150 km from all.
GRID_LAT0, GRID_DLAT = 26.0, 2.0
GRID_LON0, GRID_DLON = -122.0, 3.0
SITE_JITTER_DEG = 0.1


@dataclass(frozen=True)
class IngestSize:
    lat_rows: int
    lon_cols: int
    months: int
    locations: int
    obs_per_location: int
    duplicates: int
    containers: int
    remote: int


INGEST_SCALED = IngestSize(10, 15, 8, 1000, 4, 200, 200, 100)
INGEST_SMALL = IngestSize(3, 4, 3, 40, 3, 10, 8, 5)
# Observations behind features.csv for the forecast workload's training.
INGEST_TRAINING = IngestSize(3, 4, 4, 50, 3, 6, 6, 4)


@dataclass
class IngestPlan:
    observations: Path
    stations: Path
    input_rows: int
    container: int
    merged: int
    proximity: int
    retained: int
    # (location_id, date) -> (home station_id, summed count)
    joined: dict[tuple[str, str], tuple[str, int]] = field(default_factory=dict)
    # (station_id, month) -> the six station fields, as written
    station_values: dict[tuple[str, str], tuple[float, ...]] = field(default_factory=dict)


def _r(value: float, digits: int = 2) -> float:
    return float(round(float(value), digits))


def ingest_inputs(out_dir: Path, seed: int, size: IngestSize = INGEST_SCALED) -> IngestPlan:
    """Write observations.csv and stations.csv with planted cleaning facts.

    Planted: ``containers`` container rows, ``duplicates`` same-location
    same-date second rows, ``remote`` sites with no station within 30
    miles, and for every other site its home station.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 11])
    months = [f"2019-{m:02d}" for m in range(4, 4 + size.months)]

    stations = []  # (station_id, lat, lon)
    station_values: dict[tuple[str, str], tuple[float, ...]] = {}
    station_rows = []
    for i in range(size.lat_rows):
        for j in range(size.lon_cols):
            sid = f"st{i:02d}{j:02d}"
            lat, lon = GRID_LAT0 + i * GRID_DLAT, GRID_LON0 + j * GRID_DLON
            stations.append((sid, lat, lon))
            elevation = _r(rng.uniform(0, 2500), 1)
            for month in months:
                tmean = _r(rng.uniform(10, 30))
                values = (
                    tmean,
                    _r(tmean + rng.uniform(2, 8)),
                    _r(tmean - rng.uniform(2, 8)),
                    float(rng.integers(0, 26)),
                    _r(rng.uniform(0, 200)),
                    elevation,
                )
                station_values[(sid, month)] = values
                station_rows.append([sid, repr(lat), repr(lon), month, *map(repr, values)])

    def site_dates(k):
        picks = rng.choice(len(months) * 28, size=k, replace=False)
        return [f"{months[p // 28]}-{p % 28 + 1:02d}" for p in picks]

    obs_rows = []
    joined: dict[tuple[str, str], tuple[str, int]] = {}
    for loc in range(size.locations):
        sid, s_lat, s_lon = stations[int(rng.integers(len(stations)))]
        lat = _r(s_lat + rng.uniform(-SITE_JITTER_DEG, SITE_JITTER_DEG), 5)
        lon = _r(s_lon + rng.uniform(-SITE_JITTER_DEG, SITE_JITTER_DEG), 5)
        location_id = f"site{loc:05d}"
        for date in site_dates(size.obs_per_location):
            count = int(rng.integers(0, 200))
            source = "still" if rng.random() < 0.7 else "flowing"
            obs_rows.append([location_id, lat, lon, date, source, count])
            joined[(location_id, date)] = (sid, count)

    # Second rows for existing (location, date) keys: merged, counts summed.
    for idx in rng.choice(len(obs_rows), size=size.duplicates, replace=False):
        location_id, lat, lon, date, source, _ = obs_rows[idx]
        extra = int(rng.integers(0, 50))
        obs_rows.append([location_id, lat, lon, date, source, extra])
        sid, count = joined[(location_id, date)]
        joined[(location_id, date)] = (sid, count + extra)

    for k in range(size.containers):
        _, s_lat, s_lon = stations[int(rng.integers(len(stations)))]
        obs_rows.append([f"trap{k:05d}", s_lat, s_lon, site_dates(1)[0], "container",
                         int(rng.integers(0, 80))])

    for k in range(size.remote):
        i = int(rng.integers(max(size.lat_rows - 1, 1)))
        j = int(rng.integers(max(size.lon_cols - 1, 1)))
        lat = GRID_LAT0 + (i + 0.5) * GRID_DLAT
        lon = GRID_LON0 + (j + 0.5) * GRID_DLON
        obs_rows.append([f"remote{k:05d}", lat, lon, site_dates(1)[0], "still",
                         int(rng.integers(0, 80))])

    order = rng.permutation(len(obs_rows))
    observations = out_dir / "observations.csv"
    with observations.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBS_HEADER)
        for idx in order:
            location_id, lat, lon, date, source, count = obs_rows[idx]
            writer.writerow([location_id, repr(float(lat)), repr(float(lon)), date, source, count])
    stations_path = out_dir / "stations.csv"
    with stations_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATION_HEADER)
        writer.writerows(station_rows)

    return IngestPlan(
        observations=observations,
        stations=stations_path,
        input_rows=len(obs_rows),
        container=size.containers,
        merged=size.duplicates,
        proximity=size.remote,
        retained=len(joined),
        joined=joined,
        station_values=station_values,
    )


@dataclass
class SeriesPlan:
    series: Path
    regions: Path


SERIES_YEARS = range(1992, 2022)  # 30 values: one 20+10 training window per region
SERIES_SCALED_REGIONS = 200
SERIES_SMALL_REGIONS = 8


def series_inputs(out_dir: Path, seed: int, regions: int = SERIES_SCALED_REGIONS) -> SeriesPlan:
    """Write series.csv (four summer variables per region) and regions.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 12])
    years = np.array(list(SERIES_YEARS))
    t = years - years[0]
    series = out_dir / "series.csv"
    regions_path = out_dir / "regions.csv"
    with series.open("w", newline="", encoding="utf-8") as s_handle, \
            regions_path.open("w", newline="", encoding="utf-8") as r_handle:
        s_writer, r_writer = csv.writer(s_handle), csv.writer(r_handle)
        s_writer.writerow(["region_id", "variable", "year", "value"])
        r_writer.writerow(["region_id", "elevation_m"])
        for k in range(regions):
            region_id = f"region{k:04d}"
            base, phase = rng.uniform(12, 28), rng.uniform(0, 2 * np.pi)
            tmean = base + 0.02 * t + 0.3 * np.sin(0.6 * t + phase) + rng.normal(0, 0.1, t.size)
            tmin = tmean - rng.uniform(3, 8) + rng.normal(0, 0.05, t.size)
            tmax = tmean + rng.uniform(3, 9) + rng.normal(0, 0.05, t.size)
            precip = np.maximum(
                rng.uniform(20, 150) + 0.1 * t + 2.0 * np.sin(0.5 * t + phase)
                + rng.normal(0, 1.5, t.size),
                1.0,
            )
            for variable, values in (
                ("summer_tmean", tmean), ("summer_tmin", tmin),
                ("summer_tmax", tmax), ("summer_precip", precip),
            ):
                for year, value in zip(years, values):
                    s_writer.writerow([region_id, variable, int(year), repr(float(value))])
            r_writer.writerow([region_id, repr(_r(rng.uniform(0, 2500), 1))])
    return SeriesPlan(series=series, regions=regions_path)
