"""Closed-form and fitted auxiliary models for the climate series.

Three small models live here:

* a periodic trend function T(t) = lambda*t - exp(-alpha*t)*sin(theta*t)
  * gamma * t^beta + phi, used as a diagnostic fit on annual series;
* constant offsets relating min/max temperature to mean temperature,
  fitted by minimizing mean absolute error (the median of the per-year
  differences is the exact minimizer);
* an ordinary least squares line predicting monthly days of
  precipitation from precipitation amount, clamped to [0, 31] days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError

# Starting point for the simplex fit; phi is seeded from the data.
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

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.lam, self.alpha, self.theta, self.gamma, self.beta, self.phi]
        )


@dataclass(frozen=True)
class OffsetK:
    k_min: float
    k_max: float


@dataclass(frozen=True)
class LinearModel:
    slope: float
    intercept: float


def eval_trend(params: TrendParams, t):
    """Evaluate the periodic trend at t >= 0 (scalar or array), in years.

    The oscillation term vanishes at t = 0 (sin(0) = 0), so T(0) = phi
    for every parameter choice; t = 0 is masked to keep 0^beta from
    polluting that limit when beta <= 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("trend function is defined for t >= 0 only")
    t_safe = np.where(t == 0.0, 1.0, t)
    with np.errstate(over="ignore", invalid="ignore"):
        osc = np.exp(-params.alpha * t) * np.sin(params.theta * t)
        osc = osc * params.gamma * np.power(t_safe, params.beta)
        value = params.lam * t - np.where(t == 0.0, 0.0, osc) + params.phi
    return float(value) if value.ndim == 0 else value


def _sse(vector: np.ndarray, t: np.ndarray, values: np.ndarray) -> float:
    params = TrendParams(*vector)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = eval_trend(params, t) - values
        sse = float(np.dot(residuals, residuals))
    return sse if np.isfinite(sse) else np.inf


def fit_trend(values) -> tuple[TrendParams, float]:
    """Least-squares fit of the trend function to an annual series.

    Nelder-Mead simplex, started at the conventional approximate
    parameters with phi seeded from the first value; deterministic.
    scipy is imported here so that the pipeline stages never load it.
    """
    from scipy.optimize import minimize

    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 6:
        raise DataError("trend fit needs a 1-D series of at least 6 values")
    t = np.arange(values.size, dtype=float)
    start = np.array([*FIT_START, values[0]])
    result = minimize(
        _sse,
        start,
        args=(t, values),
        method="Nelder-Mead",
        options={"maxiter": 10_000, "maxfev": 20_000, "xatol": 1e-8, "fatol": 1e-12},
    )
    best = result.x if result.fun <= _sse(start, t, values) else start
    return TrendParams(*best), _sse(best, t, values)


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
