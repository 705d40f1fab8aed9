"""Deterministic synthetic dataset standing in for the original field data.

The real observation corpus is not redistributable, so the bundled data
is generated: six climate regions with distinct elevation, temperature,
and precipitation profiles, weather stations with monthly records,
larvae observations whose counts follow a planted relationship on the
station features, and 43-year annual summer series per region. The
planted signal lets the end-to-end pipeline demonstrate a high training
correlation without pretending to reproduce real-world findings.

Run ``python -m larvaecast.synth OUT_DIR`` to materialize the CSV files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import (
    FEATURE_NAMES,
    OBSERVATION_COLUMNS,
    REGION_COLUMNS,
    STATION_COLUMNS,
    RegionSeries,
    annual_text,
    csv_text,
    fmt,
)
from .serialize import commit

DEFAULT_SEED = 20220901

OBSERVATION_YEARS = range(2012, 2022)
OBSERVATION_MONTHS = range(5, 10)  # May .. September
SERIES_YEARS = range(1979, 2022)  # 43 annual values


@dataclass(frozen=True)
class _Region:
    region_id: str
    lat: float
    lon: float
    elevation_m: float
    tmean_c: float
    k_min: float
    k_max: float
    precip_mm: float


REGIONS = (
    _Region("cascade-ridge", 45.5, -121.0, 1400.0, 16.0, 5.5, 6.5, 60.0),
    _Region("dry-basin", 40.0, -116.5, 900.0, 22.0, 7.0, 8.5, 25.0),
    _Region("gulf-plain", 30.0, -92.0, 5.0, 27.0, 4.0, 5.0, 140.0),
    _Region("piedmont", 35.5, -80.5, 200.0, 24.0, 5.0, 6.0, 100.0),
    _Region("high-plateau", 38.5, -107.5, 2100.0, 14.0, 8.0, 9.0, 40.0),
    _Region("lake-plain", 43.0, -84.0, 180.0, 21.0, 6.0, 7.0, 90.0),
)

STATIONS_PER_REGION = 2
LOCATIONS_PER_REGION = 10


def planted_log_abundance(tmean, tmax, tmin, days, amount, elevation) -> float:
    """The planted feature-to-count relationship (log10 of count + 1)."""
    del tmax, tmin  # correlated with tmean; the signal rides on the rest
    v = (
        0.25
        + 0.085 * (tmean - 20.0)
        + 0.006 * amount
        + 0.00045 * elevation
        + 0.03 * days
    )
    return max(v, 0.0)


def _station_month_record(rng, region, station_elevation, year, month):
    seasonal = 3.5 * np.sin((month - 4.5) * np.pi / 6.0)
    tmean = region.tmean_c + seasonal + 0.03 * (year - 2012) + rng.normal(0, 0.4)
    tmax = tmean + region.k_max + rng.normal(0, 0.2)
    tmin = tmean - region.k_min - abs(rng.normal(0, 0.2))
    amount = max(
        region.precip_mm * (1.0 + 0.25 * np.sin(month + region.lon)) + rng.normal(0, 6.0),
        1.0,
    )
    days = float(np.clip(round(0.16 * amount + 1.5 + rng.normal(0, 0.7)), 0, 28))
    return {
        "tmean_c": round(tmean, 2),
        "tmax_c": round(tmax, 2),
        "tmin_c": round(tmin, 2),
        "precip_days": days,
        "precip_mm": round(amount, 2),
        "elevation_m": round(station_elevation, 1),
    }


def generate_dataset(out_dir, seed: int = DEFAULT_SEED) -> dict[str, Path]:
    """Write observations, stations, series, and region files into out_dir."""
    rng = np.random.default_rng(seed)

    stations = []  # (station_id, lat, lon, elevation, region)
    station_months: dict[tuple[str, str], dict] = {}
    for region in REGIONS:
        for s in range(STATIONS_PER_REGION):
            station_id = f"{region.region_id}-ap{s + 1}"
            lat = region.lat + (0.0 if s == 0 else 0.7)
            lon = region.lon + (0.0 if s == 0 else 0.6)
            elevation = region.elevation_m + float(rng.uniform(-120, 120))
            stations.append((station_id, lat, lon, elevation, region))
            for year in OBSERVATION_YEARS:
                for month in range(5, 11):
                    key = (station_id, f"{year:04d}-{month:02d}")
                    station_months[key] = _station_month_record(
                        rng, region, elevation, year, month
                    )

    # Observations: each location sits close to its home station so the
    # proximity join is unambiguous; counts follow the planted signal.
    observations = []
    for region_index, region in enumerate(REGIONS):
        for loc in range(LOCATIONS_PER_REGION):
            home = stations[region_index * STATIONS_PER_REGION + loc % STATIONS_PER_REGION]
            station_id, s_lat, s_lon, _elev, _region = home
            location_id = f"{region.region_id}-site{loc + 1:02d}"
            lat = s_lat + float(rng.uniform(-0.08, 0.08))
            lon = s_lon + float(rng.uniform(-0.08, 0.08))
            n_obs = int(rng.integers(2, 5))
            for _ in range(n_obs):
                year = int(rng.choice(list(OBSERVATION_YEARS)))
                month = int(rng.choice(list(OBSERVATION_MONTHS)))
                day = int(rng.integers(1, 28))
                rec = station_months[(station_id, f"{year:04d}-{month:02d}")]
                v = planted_log_abundance(
                    rec["tmean_c"], rec["tmax_c"], rec["tmin_c"],
                    rec["precip_days"], rec["precip_mm"], rec["elevation_m"],
                ) + float(rng.normal(0, 0.06))
                count = max(int(round(10.0 ** max(v, 0.0) - 1.0)), 0)
                source = "still" if rng.random() < 0.7 else "flowing"
                observations.append(
                    [location_id, lat, lon, f"{year:04d}-{month:02d}-{day:02d}",
                     source, count]
                )

    # A few same-date duplicate pairs: the pair sums back to the planted count.
    for row in observations[:: len(observations) // 4][:4]:
        half = row[5] // 2
        row[5] -= half
        observations.append([*row[:5], half])

    # Container records (filtered out) and remote locations (no station
    # within 30 miles).
    for k in range(6):
        region = REGIONS[k % len(REGIONS)]
        observations.append(
            [
                f"{region.region_id}-trap{k + 1}",
                region.lat + 0.05, region.lon - 0.05,
                f"{2015 + k % 5:04d}-06-{10 + k:02d}",
                "container", int(rng.integers(5, 60)),
            ]
        )
    for k in range(4):
        observations.append(
            [
                f"offgrid-site{k + 1}",
                25.0 + k, -105.0 - k,
                f"{2016 + k % 4:04d}-07-{5 + k:02d}",
                "still", int(rng.integers(0, 40)),
            ]
        )


    # Annual summer series, 1979..2021, four variables per region.
    series = []
    for region in REGIONS:
        years = np.array(list(SERIES_YEARS))
        t = years - years[0]
        tmean = (
            region.tmean_c
            + 0.018 * t
            + 0.25 * np.sin(0.6 * t)
            + rng.normal(0, 0.08, t.size)
        )
        tmin = tmean - region.k_min + rng.normal(0, 0.05, t.size)
        tmax = tmean + region.k_max + rng.normal(0, 0.05, t.size)
        precip = np.maximum(
            region.precip_mm
            + 0.1 * t
            + 2.0 * np.sin(0.5 * t)
            + rng.normal(0, 1.2, t.size),
            1.0,
        )
        for variable, values in (
            ("summer_tmean", tmean),
            ("summer_tmin", tmin),
            ("summer_tmax", tmax),
            ("summer_precip", precip),
        ):
            series.append(RegionSeries(region.region_id, variable, years.tolist(), values))
    paths = {name: Path(out_dir) / f"{name}.csv"
             for name in ("observations", "stations", "series", "regions")}
    coords = {station[0]: station[1:3] for station in stations}
    commit({
        paths["stations"]: csv_text(
            STATION_COLUMNS,
            ([station_id, *map(fmt, coords[station_id]), month,
              *(fmt(rec[name]) for name in FEATURE_NAMES)]
             for (station_id, month), rec in station_months.items()),
        ),
        paths["observations"]: csv_text(
            OBSERVATION_COLUMNS,
            ([location_id, fmt(lat), fmt(lon), date, source, int(count)]
             for location_id, lat, lon, date, source, count in observations),
        ),
        paths["series"]: annual_text(series),
        paths["regions"]: csv_text(
            REGION_COLUMNS, ([region.region_id, fmt(region.elevation_m)] for region in REGIONS)
        ),
    })
    return paths


def write_prepare_fixture(out_dir) -> dict[str, Path]:
    """Tiny 12-observation fixture that triggers each cleaning rule once.

    2 container rows, one same-date duplicate pair, and 1 remote
    location: 12 input rows reduce to exactly 8 feature rows.
    """
    rows = [
        ["site-a", 40.00, -100.00, "2020-06-01", "still", 10],
        ["site-a", 40.00, -100.00, "2020-06-02", "container", 50],
        ["site-b", 40.05, -100.02, "2020-06-03", "flowing", 4],
        ["site-b", 40.05, -100.02, "2020-07-01", "container", 8],
        ["site-c", 40.02, -100.06, "2020-06-05", "still", 7],
        ["site-c", 40.02, -100.06, "2020-06-05", "still", 3],
        ["site-d", 39.95, -100.04, "2020-06-10", "still", 12],
        ["site-e", 40.08, -99.96, "2020-07-02", "flowing", 1],
        ["site-f", 39.98, -99.92, "2020-07-04", "still", 22],
        ["site-g", 40.03, -100.08, "2020-07-08", "still", 6],
        ["site-h", 40.06, -100.01, "2020-08-01", "still", 9],
        ["remote-a", 42.50, -104.00, "2020-06-15", "still", 5],
    ]
    paths = {name: Path(out_dir) / f"{name}.csv" for name in ("observations", "stations")}
    commit({
        paths["observations"]: csv_text(OBSERVATION_COLUMNS, rows),
        paths["stations"]: csv_text(
            STATION_COLUMNS,
            (["airfield-1", 40.0, -100.0, month, 21.5, 27.0, 15.5, 9.0, 62.0, 650.0]
             for month in ("2020-06", "2020-07", "2020-08")),
        ),
    })
    return paths


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m larvaecast.synth OUT_DIR", file=sys.stderr)
        return 2
    paths = generate_dataset(argv[0])
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
