import math

import numpy as np
import pytest

from larvaecast.errors import DataError, DomainError, ShapeError
from larvaecast.stats import (
    betainc_reg,
    correlation_p_value,
    correlation_report,
    pearson_r,
    residual_summary,
    t_statistic,
)


def t_density(x: float, nu: float) -> float:
    log_norm = (
        math.lgamma((nu + 1) / 2)
        - math.lgamma(nu / 2)
        - 0.5 * math.log(nu * math.pi)
    )
    return math.exp(log_norm - (nu + 1) / 2 * math.log1p(x * x / nu))


def adaptive_simpson(f, a, b, eps=1e-12, depth=60):
    def simpson(lo, hi):
        mid = (lo + hi) / 2
        return (hi - lo) / 6 * (f(lo) + 4 * f(mid) + f(hi))

    def recurse(lo, hi, whole, remaining_depth, tol):
        mid = (lo + hi) / 2
        left = simpson(lo, mid)
        right = simpson(mid, hi)
        if remaining_depth <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15
        return recurse(lo, mid, left, remaining_depth - 1, tol / 2) + recurse(
            mid, hi, right, remaining_depth - 1, tol / 2
        )

    return recurse(a, b, simpson(a, b), depth, eps)


def t_sf_quadrature(t: float, nu: float) -> float:
    """P(T >= t) by integrating the density over a compactified half-line."""

    def integrand(s):
        if s >= 1.0:
            return 0.0
        x = t + s / (1.0 - s)
        return t_density(x, nu) / (1.0 - s) ** 2

    return adaptive_simpson(integrand, 0.0, 1.0, eps=1e-12)


class TestPearsonR:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # centered products sum to 3.0, both variances sum to 5.0
        assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_constant_rejected(self):
        with pytest.raises(DataError):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_affine_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        base = pearson_r(x, y)
        assert pearson_r(3.0 * x + 11.0, y) == pytest.approx(base, abs=1e-10)
        assert pearson_r(x, 0.5 * y - 4.0) == pytest.approx(base, abs=1e-10)


def exact_linear_pairs(count=2000):
    """y = 3.7x + 1.3 on random x: a correlation of exactly 1 up to rounding."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        x = rng.normal(size=int(rng.integers(3, 50)))
        yield x, 3.7 * x + 1.3


class TestPerfectCorrelation:
    def test_pearson_r_stays_within_one(self):
        assert all(abs(pearson_r(x, y)) <= 1.0 for x, y in exact_linear_pairs())

    def test_report_is_a_data_error(self):
        pairs = [(x, y) for x, y in exact_linear_pairs(200) if pearson_r(x, y) == 1.0]
        assert pairs
        for x, y in pairs:
            with pytest.raises(DataError):
                correlation_report(x, y)
        with pytest.raises(DataError):
            t_statistic(-1.0, 10)

    def test_one_tailed_p_value_follows_the_sign(self):
        assert correlation_p_value(-1.0, 10, "one") == 1.0
        assert correlation_p_value(-1.0, 10, "two") == 0.0
        assert correlation_p_value(1.0, 10, "one") == 0.0


class TestPValue:
    def test_zero_r_one_tailed(self):
        for n in (5, 20, 100):
            assert correlation_p_value(0.0, n, "one") == pytest.approx(0.5)

    def test_validation_split_entry(self):
        # frozen after confirmation against scipy.stats.t.sf: 1.43699e-3
        p = correlation_p_value(0.489, 35, "one")
        assert abs(p - 1.44e-3) / 1.44e-3 < 0.05
        assert p == pytest.approx(1.4369949200721452e-3, rel=1e-9)

    def test_training_split_entry(self):
        # frozen after confirmation against scipy.stats.t.sf: 1.1808e-45
        p = correlation_p_value(0.888, 131, "one")
        assert abs(math.log10(p) - (-44.9)) <= 1.0

    def test_against_scipy_oracle(self):
        from scipy import stats as sps

        rng = np.random.default_rng(77)
        for _ in range(25):
            r = float(rng.uniform(-0.95, 0.95))
            n = int(rng.integers(5, 200))
            t = t_statistic(r, n)
            expected = float(sps.t.sf(t, n - 2))
            assert correlation_p_value(r, n, "one") == pytest.approx(expected, rel=1e-9)

    def test_two_tail_is_twice_one_tail(self):
        for r in (0.1, 0.45, 0.83):
            one = correlation_p_value(r, 30, "one")
            two = correlation_p_value(r, 30, "two")
            assert abs(two - 2 * one) < 1e-12

    def test_monotone_in_r_and_n(self):
        rs = np.linspace(0.05, 0.95, 15)
        ps = [correlation_p_value(r, 40, "one") for r in rs]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        ns = [5, 10, 20, 50, 150]
        ps = [correlation_p_value(0.4, n, "one") for n in ns]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_perfect_correlation(self):
        assert correlation_p_value(1.0, 10, "one") == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            correlation_p_value(0.5, 2, "one")

    def test_incomplete_beta_matches_quadrature(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            t = float(rng.uniform(0.1, 6.0))
            nu = int(rng.integers(3, 61))
            mine = 0.5 * betainc_reg(nu / 2.0, 0.5, nu / (nu + t * t))
            reference = t_sf_quadrature(t, nu)
            assert mine == pytest.approx(reference, rel=1e-6, abs=1e-12)


class TestCorrelationReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        y = x + rng.normal(0, 0.5, size=50)
        report = correlation_report(x, y)
        assert report.n == 50
        assert report.t_stat == pytest.approx(t_statistic(report.r, 50))
        assert report.tail == "one"
        assert 0.0 <= report.p_value <= 1.0


class TestResidualSummary:
    def test_mixed_signs(self):
        summary = residual_summary([1.0, 5.0], [3.0, 2.0])
        assert summary.n_positive == 1
        assert summary.n_negative == 1

    def test_identical(self):
        summary = residual_summary([1.0, 2.0], [1.0, 2.0])
        assert summary.n_zero == 2
        assert summary.n_positive == summary.n_negative == 0

    def test_extremes(self):
        summary = residual_summary([0.0, 0.0, 0.0], [1.0, 2.0, -1.0])
        assert summary.n_positive == 2
        assert summary.n_negative == 1
        assert summary.max_positive == 2.0
        assert summary.max_negative == -1.0

    def test_counts_sum(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=30)
        truth = rng.normal(size=30)
        summary = residual_summary(pred, truth)
        assert summary.n_positive + summary.n_negative + summary.n_zero == 30

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_summary([1.0], [1.0, 2.0])
