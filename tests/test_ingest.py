import datetime
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from larvaecast import ingest
from larvaecast.errors import DataError, DomainError, ParseError
from larvaecast.ingest import (
    ANNUAL_COLUMNS,
    JOIN_BLOCK,
    SERIES_COLUMNS,
    LarvaeObservation,
    RegionSeries,
    StationRecord,
    annual_text,
    csv_text,
    filter_container_sources,
    fmt,
    haversine_km,
    join_nearest_station,
    merge_duplicates,
    parse_observations,
    parse_series,
    parse_stations,
    read_annual,
    read_table,
)
from larvaecast.pipeline import FORECAST_COLUMNS


def _obs(location="a", lat=40.0, lon=-100.0, date="2020-06-01",
         source="still", count=5):
    return LarvaeObservation(
        location_id=location,
        latitude=lat,
        longitude=lon,
        date=datetime.date.fromisoformat(date),
        water_source=source,
        larvae_count=count,
    )


def _station(station_id="s1", lat=40.0, lon=-100.0, month="2020-06"):
    return StationRecord(
        station_id=station_id,
        latitude=lat,
        longitude=lon,
        month=month,
        tmean_c=20.0,
        tmax_c=26.0,
        tmin_c=14.0,
        precip_days=8.0,
        precip_mm=55.0,
        elevation_m=300.0,
    )


class TestParsing:
    def test_header_only_gives_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
        )
        assert parse_observations(path) == []

    def test_container_variant_parses(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
            "x,40.0,-100.0,2020-06-01,container,3\n"
        )
        rows = parse_observations(path)
        assert rows[0].water_source == "container"

    def test_out_of_range_latitude_names_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
            "x,40.0,-100.0,2020-06-01,still,3\n"
            "y,95.0,-100.0,2020-06-02,still,1\n"
        )
        with pytest.raises(ParseError, match="row 3"):
            parse_observations(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("location_id,latitude\nx,40.0\n")
        with pytest.raises(ParseError, match="missing columns"):
            parse_observations(path)

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
            + "x" * 200_000 + ",40.0,-100.0,2020-06-01,still,3\n"
        )
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_observations(path)

    def test_unparseable_count(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "location_id,latitude,longitude,date,water_source,larvae_count\n"
            "x,40.0,-100.0,2020-06-01,still,many\n"
        )
        with pytest.raises(ParseError, match="larvae_count"):
            parse_observations(path)

    def test_station_temperature_ordering_enforced(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text(
            "station_id,latitude,longitude,month,tmean_c,tmax_c,tmin_c,"
            "precip_days,precip_mm,elevation_m\n"
            "s1,40.0,-100.0,2020-06,20.0,18.0,14.0,5,30.0,100.0\n"
        )
        with pytest.raises(ParseError, match="ordering"):
            parse_stations(path)

    def test_series_grouping_and_order(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "region_id,variable,year,value\n"
            "west,summer_tmean,2001,15.5\n"
            "west,summer_tmean,2000,15.0\n"
            "west,summer_precip,2000,80.0\n"
            "west,summer_precip,2001,82.0\n"
            "east,summer_tmean,2000,14.0\n"
        )
        series = parse_series(path)
        assert {(s.region_id, s.variable) for regions in series.values()
                for s in regions.values()} == {
            ("west", "summer_tmean"),
            ("west", "summer_precip"),
            ("east", "summer_tmean"),
        }
        assert list(series["summer_tmean"]) == ["east", "west"]
        tmean = series["summer_tmean"]["west"]
        assert tmean.years == [2000, 2001]
        np.testing.assert_allclose(tmean.values, [15.0, 15.5])

    def test_series_gap_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "region_id,variable,year,value\n"
            "west,summer_tmean,2000,15.0\n"
            "west,summer_tmean,2002,15.5\n"
        )
        with pytest.raises(DataError, match="non-consecutive"):
            parse_series(path)

    def test_unknown_variable_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "region_id,variable,year,value\nwest,winter_tmean,2000,15.0\n"
        )
        with pytest.raises(ParseError, match="variable"):
            parse_series(path)

    def test_series_header_only_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("region_id,variable,year,value\n")
        with pytest.raises(DataError, match="no series found"):
            parse_series(path)


class TestCsvText:
    def test_lines_are_made_one_row_at_a_time(self):
        read = []

        def rows():
            for i in range(3):
                read.append(i)
                yield [f"r{i}", repr(i / 4), 'a "b",c']

        lines = csv_text(["id", "value", "note"], rows())
        assert next(lines) == "id,value,note\r\n"
        assert read == []
        assert next(lines) == 'r0,0.0,"a ""b"",c"\r\n'
        assert read == [0]
        assert len(list(lines)) == 2


def _read_table(path, columns):
    return read_table(path, columns, lambda v: v[:3], lambda v: v[3])


def _outcome(read, path, columns):
    """What ``read(path, columns)`` returns, or the type and text of what it raises."""
    try:
        return read(path, columns)
    except Exception as exc:
        return type(exc), str(exc)


# Keys with every character the CSV quoting rules act on, and some it does not.
_KEY_TEXT = st.text(st.sampled_from(list(',"\r\n \t;ab-é水\u00a0\u2028')) | st.characters(
    blacklist_categories=("Cs",)), min_size=1, max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1.7e308, -1.7e308])
_SERIES = st.lists(
    st.tuples(_KEY_TEXT, _KEY_TEXT, st.integers(-3000, 3000),
              st.lists(_FINITE, min_size=1, max_size=5)),
    max_size=5, unique_by=lambda t: t[:2],
).map(lambda drawn: [RegionSeries(region, variable, list(range(start, start + len(values))),
                                  np.array(values))
                     for region, variable, start, values in drawn])


class TestAnnualCodec:
    """``read_annual`` and ``annual_text`` against the general CSV code
    they stand in for on the annual tables."""

    @given(series=_SERIES)
    def test_writer_bytes_and_round_trip(self, tmp_path_factory, series):
        text = "".join(annual_text(series))
        assert text == "".join(csv_text(ANNUAL_COLUMNS, (
            [s.region_id, s.variable, year, fmt(value)]
            for s in series for year, value in zip(s.years, s.values))))
        path = tmp_path_factory.mktemp("annual") / "forecast.csv"
        path.write_bytes(text.encode())
        expected: dict = {}
        for s in series:
            expected.setdefault(s.region_id, {})[s.variable] = dict(zip(s.years, s.values.tolist()))
        table = read_annual(path, FORECAST_COLUMNS)
        assert table == _read_table(path, FORECAST_COLUMNS) == expected
        assert list(table) == list(expected)

    def test_writer_streams_one_block_per_series(self):
        series = [RegionSeries("a,b", "summer_tmean", [2000, 2001], np.array([1.5, -0.0])),
                  RegionSeries("c", 'x"y', [1999], np.array([1e16]))]
        assert list(annual_text(series)) == [
            "region_id,variable,year,value\r\n",
            '"a,b",summer_tmean,2000,1.5\r\n"a,b",summer_tmean,2001,-0.0\r\n',
            'c,"x""y",1999,1e+16\r\n',
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e300 * 1e300])
    def test_writer_refuses_a_non_finite_value(self, value):
        series = [RegionSeries("ok", "summer_tmean", [2000], np.array([1.0])),
                  RegionSeries("gulf", "summer_precip", [2000, 2001], np.array([2.0, value]))]
        lines = annual_text(series)
        assert next(lines) == "region_id,variable,year,value\r\n"
        assert next(lines) == "ok,summer_tmean,2000,1.0\r\n"
        with pytest.raises(DataError) as caught:
            next(lines)
        assert str(caught.value) == ("series gulf/summer_precip, year 2001: "
                                     f"cannot write a non-finite number: {value!r}")

    def test_fmt_refuses_a_non_finite_value(self):
        assert fmt(np.float64(-0.0)) == "-0.0"
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError, match="non-finite"):
                fmt(value)

    def test_clean_table_is_read_in_one_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbfnote,value,year,variable,region_id\r\n"
                         b"x,1.5,2000,summer_tmean,west\r\n\r\n"
                         b",2.5,2001,summer_tmean,west\r\n"
                         b"y,3.0,2000,summer_precip,east\r\n")
        expected = _read_table(path, SERIES_COLUMNS)
        monkeypatch.setattr(ingest, "read_table", None)  # a fallback would fail
        assert read_annual(path, SERIES_COLUMNS) == expected == {
            "west": {"summer_tmean": {2000: 1.5, 2001: 2.5}},
            "east": {"summer_precip": {2000: 3.0}},
        }

    HEADER = b"region_id,variable,year,value\r\n"
    ROW = b"west,summer_tmean,2000,15.0\r\n"

    @pytest.mark.parametrize("content", [
        b"",
        b"\r\n\r\n",
        b"region_id,variable,value\r\nwest,summer_tmean,15.0\r\n",
        b"region_id,variable,year,value,year\r\nwest,summer_tmean,2000,15.0,2000\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,15.0,extra\r\n",
        b"region_id,variable,year,value,note\r\nwest,summer_tmean,2000,15.0\r\n",
        b"region_id,variable,year,value,note\r\nwest,summer_tmean,2000\r\n",
        HEADER + ROW + b"west,summer_tmean,,15.5\r\n",
        HEADER + ROW + b",summer_tmean,2001,15.5\r\n",
        HEADER + ROW + b"west,,2001,15.5\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,\r\n",
        HEADER + ROW + b"west,summer_tmean,20x1,15.5\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,15.5x\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,nan\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,-inf\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,1e999\r\n",
        HEADER + ROW + b"west,winter_tmean,2001,15.5\r\n",
        HEADER + ROW + b"west,summer_tmean,2001,1.0\r\nwest,summer_tmean,2000,1.0\r\n",
        HEADER + b"\r\n" + ROW + b"\r\n\r\n" + ROW,
        HEADER + b"\r\n" + ROW + b"\r\n",
        b"\xef\xbb\xbf" + HEADER + ROW,
        b"\xef\xbb\xbf" + HEADER + ROW + ROW,
        HEADER + ROW + b"west,summer_tmean,2001,1\xff5\r\n",
        b"\xff" + HEADER + ROW,
        HEADER + ROW + b'"west,summer_tmean,2001,1.0\r\n',
    ], ids=["empty", "blank-lines-only", "missing-column", "repeated-column", "long-row",
            "short-row-unneeded-column", "short-row", "empty-year", "empty-region",
            "empty-variable", "empty-value", "bad-int", "bad-float", "nan", "inf",
            "overflow", "unknown-variable", "duplicate-key", "blank-lines-duplicate",
            "blank-lines", "bom", "bom-duplicate", "not-utf8-row", "not-utf8-header",
            "unclosed-quote"])
    def test_errors_match_read_table(self, tmp_path, content):
        path = tmp_path / "series.csv"
        path.write_bytes(content)
        assert (_outcome(read_annual, path, SERIES_COLUMNS)
                == _outcome(_read_table, path, SERIES_COLUMNS))


class TestContainerFilter:
    def test_removes_only_containers(self):
        rows = [
            _obs("a", source="still"),
            _obs("b", source="container"),
            _obs("c", source="flowing"),
        ]
        kept = filter_container_sources(rows)
        assert [o.location_id for o in kept] == ["a", "c"]

    def test_all_containers(self):
        rows = [_obs("a", source="container"), _obs("b", source="container")]
        assert filter_container_sources(rows) == []

    def test_no_containers_identity(self):
        rows = [_obs("a"), _obs("b", source="flowing")]
        assert filter_container_sources(rows) == rows


class TestMergeDuplicates:
    def test_same_date_same_location_sums(self):
        merged = merge_duplicates(
            [_obs("a", count=10), _obs("a", count=20)]
        )
        assert len(merged) == 1
        assert merged[0].larvae_count == 30

    def test_different_dates_kept(self):
        merged = merge_duplicates(
            [_obs("a", date="2020-06-01"), _obs("a", date="2020-06-02")]
        )
        assert len(merged) == 2

    def test_single_row_identity(self):
        row = _obs("a")
        assert merge_duplicates([row]) == [row]

    def test_output_sorted(self):
        merged = merge_duplicates(
            [_obs("b", date="2020-06-02"), _obs("a", date="2020-06-03"),
             _obs("a", date="2020-06-01")]
        )
        keys = [(o.location_id, o.date) for o in merged]
        assert keys == sorted(keys)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(40.0, -100.0, 40.0, -100.0) == 0.0

    def test_quarter_circumference(self):
        # pi/2 * 6371, verified by hand
        assert haversine_km(0.0, 0.0, 0.0, 90.0) == pytest.approx(
            10007.543398, abs=1e-3
        )

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            b = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            assert haversine_km(*a, *b) == pytest.approx(haversine_km(*b, *a))

    def test_invalid_coordinates(self):
        with pytest.raises(DomainError):
            haversine_km(91.0, 0.0, 0.0, 0.0)

    def test_arrays_broadcast_like_scalar_calls(self):
        rng = np.random.default_rng(3)
        lat1, lon1 = rng.uniform(-90, 90, (3, 1)), rng.uniform(-180, 180, (3, 1))
        lat2, lon2 = rng.uniform(-90, 90, 4), rng.uniform(-180, 180, 4)
        d = haversine_km(lat1, lon1, lat2, lon2)
        assert d.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert d[i, j] == haversine_km(float(lat1[i, 0]), float(lon1[i, 0]),
                                               float(lat2[j]), float(lon2[j]))

    @pytest.mark.parametrize("bad", [math.nan, 91.0])
    def test_one_bad_array_element_raises(self, bad):
        lat = np.array([10.0, bad, 20.0])
        with pytest.raises(DomainError):
            haversine_km(lat[:, None], np.zeros((3, 1)), np.zeros(4), np.zeros(4))
        with pytest.raises(DomainError):
            haversine_km(0.0, 0.0, lat, np.zeros(3))


class TestJoinNearestStation:
    def test_joins_within_radius(self):
        rows, dropped = join_nearest_station([_obs("a")], [_station(lat=40.05)])
        assert dropped == 0
        assert rows[0].tmean_c == 20.0
        assert rows[0].month == "2020-06"

    def test_distant_station_excluded(self):
        # ~0.6 degrees latitude is ~67 km, beyond the 30-mile default
        rows, dropped = join_nearest_station([_obs("a")], [_station(lat=40.6)])
        assert rows == []
        assert dropped == 1

    def test_prefers_nearest(self):
        near = _station("near", lat=40.045)  # ~5 km
        far = _station("far", lat=40.18)  # ~20 km
        rows, _ = join_nearest_station([_obs("a")], [far, near])
        assert rows[0].elevation_m == near.elevation_m

    def test_month_must_match(self):
        rows, dropped = join_nearest_station(
            [_obs("a", date="2020-07-01")], [_station(month="2020-06")]
        )
        assert dropped == 1

    def test_order_independent(self):
        observations = [_obs("a"), _obs("b", lat=40.02)]
        stations = [_station("s1"), _station("s2", lat=40.01)]
        rows_fwd, _ = join_nearest_station(observations, stations)
        rows_rev, _ = join_nearest_station(observations, list(reversed(stations)))
        assert rows_fwd == rows_rev

    def test_tie_breaks_on_station_id(self):
        stations = [_station("s2")._replace(elevation_m=2.0),
                    _station("s1")._replace(elevation_m=1.0)]
        rows, _ = join_nearest_station([_obs("a", lat=40.01)], stations)
        assert rows[0].elevation_m == 1.0

    def test_boundary_is_inclusive(self):
        obs, station = _obs("a", lat=40.0), _station(lat=40.1)
        d = haversine_km(obs.latitude, obs.longitude, station.latitude, station.longitude)
        assert join_nearest_station([obs], [station], max_km=d)[1] == 0
        assert join_nearest_station([obs], [station], max_km=np.nextafter(d, 0))[1] == 1

    def test_blocks_match_brute_force(self):
        rng = np.random.default_rng(21)
        stations = [
            _station(f"s{k:02d}", lat=lat, lon=lon)._replace(elevation_m=float(k))
            for k, (lat, lon) in enumerate(zip(rng.uniform(39, 41, 30), rng.uniform(-101, -99, 30)))
        ]
        # s99 ties s03 at the same place and comes first in the file
        stations[7] = stations[3]._replace(station_id="s99", elevation_m=7.0)
        observations = [
            _obs(f"o{k}", lat=lat, lon=lon)
            for k, (lat, lon) in enumerate(zip(rng.uniform(38.5, 41.5, 2 * JOIN_BLOCK + 1),
                                               rng.uniform(-101.5, -98.5, 2 * JOIN_BLOCK + 1)))
        ]
        max_km = 30.0
        expected = []
        for obs in observations:
            within = [(d, s.station_id, s.elevation_m) for s in reversed(stations)
                      if (d := haversine_km(obs.latitude, obs.longitude,
                                            s.latitude, s.longitude)) <= max_km]
            if within:
                expected.append((obs.location_id, min(within)[2]))
        rows, dropped = join_nearest_station(observations, list(reversed(stations)), max_km)
        assert [(r.location_id, r.elevation_m) for r in rows] == expected
        assert 0 < dropped == len(observations) - len(expected)
