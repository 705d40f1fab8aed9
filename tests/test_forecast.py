import numpy as np
import pytest

from larvaecast.errors import ConfigError, DataError, ShapeError
from larvaecast.forecast import ForecastConfig, check_window, forecast, forecast_series
from larvaecast.ingest import RegionSeries


def reference_forecast(predict, windows, lookback, horizon, rounds):
    """Straight-line re-implementation of the recursive loop (test oracle).

    Written independently of the engine: no shared helpers, explicit
    de-standardize / roll / re-standardize sequence per round, with
    ``predict`` called on one single-row batch at a time.
    """
    out = []
    for row in np.asarray(windows, dtype=float):
        x = row.copy()
        mu = np.mean(x)
        sd = np.std(x)
        if sd < 1e-9:
            sd = 1.0
        x = (x - mu) / sd
        collected = []
        for _ in range(rounds):
            y = np.asarray(predict(x[None, :]), dtype=float)[0]
            y = y * sd + mu
            x = x * sd + mu
            collected.extend(y.tolist())
            kept_tail = x[len(x) - (lookback - horizon) :]
            x = np.concatenate([kept_tail, y])
            mu = np.mean(x)
            sd = np.std(x)
            if sd < 1e-9:
                sd = 1.0
            x = (x - mu) / sd
        out.append(collected)
    return np.array(out)


def linear_mock(seed, lookback, horizon):
    """A linear model on (m, lookback) batches. Each row is reduced on its
    own, so a row gives bitwise the same prediction alone or in a batch
    (a BLAS ``x @ matrix.T`` does not)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(horizon, lookback))
    shift = rng.normal(size=horizon)
    return lambda x: (x[..., None, :] * matrix).sum(axis=-1) + shift


def zero_model(horizon):
    return lambda x: np.zeros((x.shape[0], horizon))


class TestForecastConfig:
    def test_horizon_bound(self):
        with pytest.raises(ConfigError):
            ForecastConfig(lookback=5, horizon=6, rounds=1)

    def test_positive_rounds(self):
        with pytest.raises(ConfigError):
            ForecastConfig(lookback=5, horizon=2, rounds=0)

    @pytest.mark.parametrize("lookback, horizon, message", [
        (5, 6, "horizon must not exceed lookback"),
        (0, 1, "lookback must be positive: 0"),
        (3, 0, "horizon must be positive: 0"),
    ])
    def test_check_window_is_the_config_rule(self, lookback, horizon, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            check_window(lookback, horizon)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ForecastConfig(lookback, horizon, rounds=1)
        check_window(lookback=6, horizon=6)


class TestForecast:
    def test_constant_window_zero_model(self):
        cfg = ForecastConfig(lookback=20, horizon=10, rounds=3)
        window = np.full(20, 5.0)
        out = forecast(zero_model(10), window[None, :], cfg)
        np.testing.assert_allclose(out, np.full((1, 30), 5.0))

    def test_output_length_is_horizon_times_rounds(self):
        cfg = ForecastConfig(lookback=20, horizon=10, rounds=2)
        rng = np.random.default_rng(1)
        windows = rng.normal(20.0, 3.0, size=(5, 20))
        out = forecast(linear_mock(3, 20, 10), windows, cfg)
        assert out.shape == (5, 20)

    def test_linear_ramp_hand_stepped(self):
        cfg = ForecastConfig(lookback=20, horizon=10, rounds=2)
        ramp = np.arange(1.0, 21.0)
        continuations = {0: np.arange(21.0, 31.0), 1: np.arange(31.0, 41.0)}
        window_history = {0: ramp, 1: np.arange(11.0, 31.0)}
        seen_inputs = []

        def mock(x_std):
            call = len(seen_inputs)
            seen_inputs.append(x_std[0].copy())
            window = window_history[call]
            return ((continuations[call] - window.mean()) / window.std())[None, :]

        out = forecast(mock, ramp[None, :], cfg)[0]
        np.testing.assert_allclose(out, np.arange(21.0, 41.0), atol=1e-9)
        # round 2 must have seen the rolled window [11..30], standardized
        rolled = window_history[1]
        np.testing.assert_allclose(
            seen_inputs[1], (rolled - rolled.mean()) / rolled.std(), atol=1e-9
        )

    def test_matches_reference_on_random_instances(self):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=4)
        rng = np.random.default_rng(99)
        for case in range(100):
            mock = linear_mock(1000 + case, 6, 3)
            windows = rng.normal(10.0, 4.0, size=(3, 6))
            mine = forecast(mock, windows, cfg)
            ref = reference_forecast(mock, windows, 6, 3, 4)
            np.testing.assert_array_equal(mine, ref)

    def test_regions_are_independent(self):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=2)
        mock = linear_mock(7, 6, 3)
        rng = np.random.default_rng(8)
        windows = rng.normal(size=(4, 6))
        baseline = forecast(mock, windows, cfg)
        permutation = np.array([2, 0, 3, 1])
        permuted = forecast(mock, windows[permutation], cfg)
        np.testing.assert_array_equal(permuted, baseline[permutation])
        for window, row in zip(windows, baseline):
            np.testing.assert_array_equal(forecast(mock, window[None, :], cfg)[0], row)

    def test_deterministic(self):
        cfg = ForecastConfig(lookback=8, horizon=4, rounds=3)
        mock = linear_mock(5, 8, 4)
        windows = np.random.default_rng(2).normal(size=(2, 8))
        np.testing.assert_array_equal(
            forecast(mock, windows, cfg), forecast(mock, windows, cfg)
        )

    def test_output_in_original_units(self):
        # shifting the input by a constant shifts a zero-model output
        # identically: results live in variable units, not z-scores
        cfg = ForecastConfig(lookback=10, horizon=5, rounds=2)
        rng = np.random.default_rng(12)
        base = rng.normal(25.0, 2.0, size=(1, 10))
        zero = zero_model(5)
        out_a = forecast(zero, base, cfg)
        out_b = forecast(zero, base + 100.0, cfg)
        np.testing.assert_allclose(out_b - out_a, np.full((1, 10), 100.0), atol=1e-9)

    def test_wrong_window_length(self):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=1)
        with pytest.raises(ShapeError):
            forecast(zero_model(3), np.zeros((2, 5)), cfg)

    def test_wrong_prediction_length(self):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=1)
        with pytest.raises(ShapeError):
            forecast(zero_model(4), np.zeros((1, 6)), cfg)


def region_series(region_id, years, values):
    return RegionSeries(region_id, "summer_tmean", list(years), np.asarray(values, dtype=float))


class TestForecastSeries:
    def test_start_year_follows_series(self):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=2)
        results = forecast_series(
            zero_model(3),
            [
                region_series("west", range(2000, 2010), np.linspace(10, 12, 10)),
                region_series("east", range(1990, 1998), np.linspace(5, 6, 8)),
            ],
            cfg,
        )
        assert [(r.region_id, r.variable) for r in results] == [
            ("west", "summer_tmean"), ("east", "summer_tmean"),
        ]
        assert results[0].years[0] == 2010
        assert results[0].years == list(range(2010, 2016))
        assert results[0].values.size == 6
        assert results[1].years == list(range(1998, 2004))

    def test_short_series_rejected(self):
        cfg = ForecastConfig(lookback=20, horizon=10, rounds=1)
        with pytest.raises(DataError, match="west"):
            forecast_series(
                zero_model(10),
                [region_series("west", range(2000, 2010), np.arange(10.0))],
                cfg,
            )

    def test_window_too_large_in_a_later_round_names_its_series(self):
        """Every round's window is checked: east's second block overflows
        its window's standard deviation, which the third round refuses."""
        calls = []

        def predict(x):
            calls.append(len(calls))
            y = np.zeros((len(x), 3))
            if len(calls) == 2:
                y[1] = 1e300
            return y

        cfg = ForecastConfig(lookback=6, horizon=3, rounds=3)
        series = [region_series("west", range(2000, 2010), np.linspace(10, 12, 10)),
                  region_series("east", range(1990, 1998), np.linspace(5, 6, 8))]
        with pytest.raises(DataError) as caught:
            forecast_series(predict, series, cfg)
        assert str(caught.value).startswith(
            "series east/summer_tmean: a window is too large to standardize (mean ")
        assert str(caught.value).endswith("standard deviation inf)")
        assert calls == [0, 1]
