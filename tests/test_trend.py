from dataclasses import astuple

import numpy as np
import pytest

from larvaecast.errors import DataError, DomainError
from larvaecast.trend import (
    FIT_START,
    LinearModel,
    OffsetK,
    TrendParams,
    derive_min_max,
    estimate_k,
    eval_trend,
    fit_linear,
    fit_trend,
    predict_days,
)

REFERENCE_PARAMS = TrendParams(
    lam=0.01, alpha=-0.01, theta=0.6, gamma=0.5, beta=0.03, phi=0.0
)


def grid_search_k(differences: np.ndarray, step: float = 1e-4) -> float:
    """Exhaustive MAE minimizer over the difference range (test oracle)."""
    lo, hi = differences.min(), differences.max()
    grid = np.arange(lo, hi + step, step)
    mae = np.mean(np.abs(differences[None, :] - grid[:, None]), axis=1)
    return float(grid[np.argmin(mae)])


class TestEvalTrend:
    def test_value_at_zero_is_intercept(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            params = TrendParams(*rng.normal(size=5), phi=float(rng.normal()))
            assert eval_trend(params, 0.0) == pytest.approx(params.phi)

    def test_reference_value_at_ten(self):
        # 0.1 - e^{0.1} * sin(6) * 0.5 * 10^{0.03}, evaluated independently
        # and frozen as a regression constant.
        assert eval_trend(REFERENCE_PARAMS, 10.0) == pytest.approx(
            0.2654435893868141, rel=1e-12
        )

    def test_pure_linear_when_gamma_zero(self):
        params = TrendParams(lam=1.0, alpha=0.3, theta=2.0, gamma=0.0, beta=0.5, phi=2.0)
        for t in (0.0, 1.0, 5.5, 40.0):
            assert eval_trend(params, t) == pytest.approx(t + 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            eval_trend(REFERENCE_PARAMS, -1.0)

    def test_vectorized_and_finite(self):
        t = np.linspace(0.0, 40.0, 400)
        values = eval_trend(REFERENCE_PARAMS, t)
        assert values.shape == t.shape
        assert np.all(np.isfinite(values))


class TestFitTrend:
    def test_recovers_noiseless_parameters(self):
        truth = TrendParams(*FIT_START, phi=15.0)
        t = np.arange(43.0)
        series = eval_trend(truth, t)
        fitted, sse = fit_trend(series)
        assert sse < 1e-6
        for name in ("lam", "alpha", "theta", "gamma", "beta", "phi"):
            value, expected = getattr(fitted, name), getattr(truth, name)
            assert abs(value - expected) <= 0.1 * abs(expected) + 1e-9

    def test_constant_series(self):
        _, sse = fit_trend(np.full(43, 9.25))
        assert sse < 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        series = eval_trend(REFERENCE_PARAMS, np.arange(30.0)) + rng.normal(
            0, 0.05, 30
        )
        first = fit_trend(series)
        second = fit_trend(series)
        assert first == second

    def test_perturbed_truths_fit_at_least_as_well_as_the_truth(self):
        """Unlike criterion 6, the truth here is not the fit's start."""
        rng = np.random.default_rng(7)
        t = np.arange(43.0)
        for _ in range(40):
            scaled = np.array(FIT_START) * rng.uniform(0.5, 1.5, 5)
            truth = TrendParams(*scaled, phi=float(rng.uniform(5, 30)))
            clean = eval_trend(truth, t)
            series = clean + rng.normal(0, 0.05, t.size)
            _, sse = fit_trend(series)
            assert sse <= float((series - clean) @ (series - clean))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_rejected(self, bad):
        series = np.arange(43.0)
        series[20] = bad
        with pytest.raises(DataError, match="finite"):
            fit_trend(series)

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            fit_trend([1.0, 2.0, 3.0])

    def test_huge_finite_series_warns_nothing(self):
        """Under the suite's warnings-as-errors, a constant series near float's
        limit fits with an SSE of 0, and one whose SSE overflows is a DataError."""
        params, sse = fit_trend(np.full(43, 1e200))
        assert np.all(np.isfinite(astuple(params)))
        assert sse == 0.0
        with pytest.raises(DataError, match="finite sum of squares"):
            fit_trend(np.random.default_rng(0).normal(size=43) * 1e200)


class TestEstimateK:
    def test_odd_count_median(self):
        k = estimate_k([10.0, 20.0, 30.0], [8.0, 18.0, 27.0], "min")
        assert k == 2.0
        diffs = np.array([2.0, 2.0, 3.0])
        assert k == pytest.approx(grid_search_k(diffs), abs=1e-3)

    def test_identical_series(self):
        assert estimate_k([4.0, 5.0], [4.0, 5.0], "min") == 0.0
        assert estimate_k([4.0, 5.0], [4.0, 5.0], "max") == 0.0

    def test_even_count_midpoint(self):
        k = estimate_k([10.0, 20.0], [13.0, 25.0], "max")
        assert k == 4.0
        diffs = np.array([3.0, 5.0])
        grid = np.arange(0.0, 5.0, 1e-3)
        mae = np.mean(np.abs(diffs[None, :] - grid[:, None]), axis=1)
        assert np.min(mae) >= np.mean(np.abs(diffs - k)) - 1e-12

    def test_matches_grid_search_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            mean_series = rng.uniform(5, 30, n)
            diffs = rng.uniform(0, 5, n)
            k = estimate_k(mean_series, mean_series - diffs, "min")
            best = grid_search_k(diffs)
            mae_mine = float(np.mean(np.abs(diffs - k)))
            mae_grid = float(np.mean(np.abs(diffs - best)))
            assert mae_mine <= mae_grid + 1e-4

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            estimate_k([1.0], [1.0], "median")

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            estimate_k([1.0, 2.0], [1.0], "min")


class TestDeriveMinMax:
    def test_elementwise_offsets(self):
        low, high = derive_min_max([20.0, 21.0], OffsetK(k_min=5.0, k_max=8.0))
        np.testing.assert_allclose(low, [15.0, 16.0])
        np.testing.assert_allclose(high, [28.0, 29.0])

    def test_zero_offsets_identity(self):
        mean = np.array([1.0, 2.0, 3.0])
        low, high = derive_min_max(mean, OffsetK(0.0, 0.0))
        np.testing.assert_array_equal(low, mean)
        np.testing.assert_array_equal(high, mean)

    def test_ordering_preserved(self):
        rng = np.random.default_rng(3)
        mean = rng.uniform(-5, 35, 50)
        k = OffsetK(k_min=float(rng.uniform(0, 4)), k_max=float(rng.uniform(0, 4)))
        low, high = derive_min_max(mean, k)
        assert np.all(low <= mean) and np.all(mean <= high)


class TestFitLinear:
    def test_exact_line(self):
        model = fit_linear([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)

    def test_constant_target(self):
        model = fit_linear([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert model.slope == pytest.approx(0.0)
        assert model.intercept == pytest.approx(4.0)

    def test_residuals_orthogonal_to_x(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=50)
        y = 1.7 * x + rng.normal(0, 0.3, 50)
        model = fit_linear(x, y)
        residuals = y - (model.slope * x + model.intercept)
        assert abs(np.dot(residuals, x - x.mean())) < 1e-8

    def test_beats_perturbed_lines(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(0, 10, 80)
        y = 0.4 * x + 2 + rng.normal(0, 0.5, 80)
        model = fit_linear(x, y)
        best = np.mean((y - (model.slope * x + model.intercept)) ** 2)
        for ds, di in [(0.05, 0.0), (-0.05, 0.0), (0.0, 0.2), (0.02, -0.1)]:
            alt = np.mean((y - ((model.slope + ds) * x + model.intercept + di)) ** 2)
            assert best <= alt

    def test_constant_x_rejected(self):
        with pytest.raises(DataError):
            fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestPredictDays:
    def test_plain_prediction(self):
        assert predict_days(LinearModel(slope=0.1, intercept=2.0), 50.0) == 7.0

    def test_upper_clamp(self):
        assert predict_days(LinearModel(slope=1.0, intercept=0.0), 100.0) == 31.0

    def test_lower_clamp(self):
        assert predict_days(LinearModel(slope=-1.0, intercept=0.0), 5.0) == 0.0

    def test_negative_amount_rejected(self):
        with pytest.raises(DomainError):
            predict_days(LinearModel(slope=1.0, intercept=0.0), -2.0)
