"""Closed-form and fitted auxiliary models for the climate series.

Three small models live here:

* a periodic trend function T(t) = lambda*t - exp(-alpha*t)*sin(theta*t)
  * gamma * t^beta + phi, fitted to annual series as a diagnostic by
  variable projection (Golub & Pereyra 1973): linear least squares for
  (lambda, gamma, phi) at each trial (alpha, theta, beta);
* constant offsets relating min/max temperature to mean temperature,
  fitted by minimizing mean absolute error (the median of the per-year
  differences is the exact minimizer);
* an ordinary least squares line predicting monthly days of
  precipitation from precipitation amount, clamped to [0, 31] days.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DataError, DomainError

# Conventional approximate (lam, alpha, theta, gamma, beta); the fit
# starts its search at this alpha and beta.
FIT_START = (0.01, -0.01, 0.6, 0.5, 0.03)

MAX_DAYS_PER_MONTH = 31.0


@dataclass(frozen=True)
class TrendParams:
    lam: float
    alpha: float
    theta: float
    gamma: float
    beta: float
    phi: float


@dataclass(frozen=True)
class OffsetK:
    k_min: float
    k_max: float


@dataclass(frozen=True)
class LinearModel:
    slope: float
    intercept: float


def _trend_basis(t: np.ndarray, alpha: float, theta: float, beta: float) -> np.ndarray:
    """Columns [t, -osc(t), 1] on which the trend is linear in (lam, gamma, phi).

    osc(t) = exp(-alpha*t) * sin(theta*t) * t^beta vanishes at t = 0
    (sin(0) = 0); t = 0 is masked to keep 0^beta from polluting that
    limit when beta <= 0.
    """
    t_safe = np.where(t == 0.0, 1.0, t)
    with np.errstate(over="ignore", invalid="ignore"):
        osc = np.exp(-alpha * t) * np.sin(theta * t) * np.power(t_safe, beta)
    return np.stack([t, -np.where(t == 0.0, 0.0, osc), np.ones_like(t)], axis=-1)


def eval_trend(params: TrendParams, t):
    """Evaluate the periodic trend at t >= 0 (scalar or array), in years."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("trend function is defined for t >= 0 only")
    basis = _trend_basis(t, params.alpha, params.theta, params.beta)
    with np.errstate(over="ignore", invalid="ignore"):
        value = basis @ np.array([params.lam, params.gamma, params.phi])
    return float(value) if value.ndim == 0 else value


def fit_trend(values) -> tuple[TrendParams, float]:
    """Least-squares fit of the trend function to an annual series.

    Variable projection: for each trial (alpha, theta, beta), one lstsq
    on the trend basis gives (lam, gamma, phi). The search starts at the
    best theta of a coarse scan over [0.01, pi] and runs a compass search,
    halving its steps whenever no single-coordinate move lowers the SSE;
    deterministic. A series so large that even the best fit's SSE
    overflows is a DataError.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 6:
        raise DataError("trend fit needs a 1-D series of at least 6 values")
    if not np.all(np.isfinite(values)):
        raise DataError("trend fit needs finite values")
    t = np.arange(values.size, dtype=float)

    def solve(point):
        basis = _trend_basis(t, *point)
        if not np.all(np.isfinite(basis)):
            return np.inf, None
        coef = np.linalg.lstsq(basis, values, rcond=None)[0]
        # Huge values can overflow the SSE; a fit that ends non-finite is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = basis @ coef - values
            return float(residuals @ residuals), coef

    thetas = np.linspace(0.01, np.pi, 315)
    _, alpha, _, _, beta = FIT_START
    point = min(([alpha, theta, beta] for theta in thetas), key=lambda p: solve(p)[0])
    best = solve(point)
    steps = np.array([0.01, thetas[1] - thetas[0], 0.05])
    while steps.max() >= 1e-10:
        for axis, sign in product(range(3), (1.0, -1.0)):
            trial = list(point)
            trial[axis] += sign * steps[axis]
            result = solve(trial)
            if result[0] < best[0]:
                point, best = trial, result
                break
        else:
            steps /= 2.0
    if not np.isfinite(best[0]):
        raise DataError("trend fit has no finite sum of squares: the values are too large")
    (lam, gamma, phi), (alpha, theta, beta) = best[1], point
    return TrendParams(lam, alpha, theta, gamma, beta, phi), best[0]


def estimate_k(mean_series, extreme_series, kind: str) -> float:
    """MAE-optimal constant offset between the mean and an extreme series.

    The median of the per-year differences minimizes mean absolute
    error exactly; even-length ties resolve to the midpoint of the two
    central values.
    """
    mean_series = np.asarray(mean_series, dtype=float)
    extreme_series = np.asarray(extreme_series, dtype=float)
    if mean_series.shape != extreme_series.shape or mean_series.size == 0:
        raise DataError("offset estimation needs equal nonempty series")
    if kind == "min":
        differences = mean_series - extreme_series
    elif kind == "max":
        differences = extreme_series - mean_series
    else:
        raise DomainError(f"unknown offset kind: {kind!r}")
    return float(np.median(differences))


def derive_min_max(mean_values, k: OffsetK):
    """Min and max series implied by a mean series and fitted offsets."""
    mean_values = np.asarray(mean_values, dtype=float)
    return mean_values - k.k_min, mean_values + k.k_max


def fit_linear(x, y) -> LinearModel:
    """Ordinary least squares fit of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DataError("linear fit needs two equal 1-D sequences of length >= 2")
    var = float(np.var(x))
    if var < 1e-12:
        raise DataError("linear fit undefined for constant x")
    slope = float(np.cov(x, y, bias=True)[0, 1]) / var
    intercept = float(y.mean() - slope * x.mean())
    return LinearModel(slope=slope, intercept=intercept)


def predict_days(model: LinearModel, amount_mm):
    """Days of precipitation for monthly amounts (scalar or array),
    clamped to [0, 31]."""
    amount_mm = np.asarray(amount_mm, dtype=float)
    if np.any(amount_mm < 0):
        raise DomainError("precipitation amount must be non-negative")
    days = np.clip(model.slope * amount_mm + model.intercept, 0.0, MAX_DAYS_PER_MONTH)
    return float(days) if days.ndim == 0 else days
