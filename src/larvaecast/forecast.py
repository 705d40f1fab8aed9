"""Recursive multi-step climate forecasting.

Each region's last ``lookback`` observations are standardized, predicted
``horizon`` steps ahead, de-standardized, appended, and the rolled
window is re-standardized with fresh statistics before the next round.
All regions roll together: one ``predict`` call per round covers the
whole batch. The de-standardize / re-standardize sequence is kept
literal (not algebraically collapsed) so intermediate windows can be
inspected.

Every round standardizes through ``preprocess.standardize_rows``, as
LSTM training does, so a window of near-zero sigma is a pure mean shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .preprocess import standardize_rows


@dataclass(frozen=True)
class ForecastConfig:
    lookback: int
    horizon: int
    rounds: int

    def __post_init__(self):
        if min(self.lookback, self.horizon, self.rounds) < 1:
            raise ConfigError("lookback, horizon, and rounds must be positive")
        if self.horizon > self.lookback:
            raise ConfigError("horizon must not exceed lookback")


@dataclass
class ForecastResult:
    region_id: str
    variable: str
    start_year: int
    values: np.ndarray  # length horizon * rounds

    def years(self) -> list[int]:
        return list(range(self.start_year, self.start_year + self.values.size))


def forecast(predict, windows, cfg: ForecastConfig) -> np.ndarray:
    """Recursive forecast of ``rounds`` blocks for each input window.

    ``predict`` maps an (m, lookback) batch of standardized windows to
    an (m, horizon) batch of standardized predictions. ``windows`` is an
    (m, lookback) array (or a list of length-lookback sequences) in
    original units; the result is (m, horizon * rounds), also in
    original units. Rows are independent of each other.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 1:
        windows = windows[None, :]
    if windows.ndim != 2 or windows.shape[1] != cfg.lookback:
        raise ShapeError(
            f"windows must be (m, {cfg.lookback}), got shape {windows.shape}"
        )
    p = cfg.horizon
    x, mu, sigma = standardize_rows(windows)
    collected = []
    for _ in range(cfg.rounds):
        y = np.asarray(predict(x), dtype=float)
        if y.shape != (x.shape[0], p):
            raise ShapeError(
                f"model must predict {(x.shape[0], p)} values, got shape {y.shape}"
            )
        y = y * sigma + mu
        x = x * sigma + mu
        collected.append(y)
        x, mu, sigma = standardize_rows(np.concatenate([x[:, p:], y], axis=1))
    return np.concatenate(collected, axis=1)


def require_window(series, width: int) -> None:
    """Raise DataError, naming the region and variable, if a series is
    shorter than one window of ``width`` values."""
    if len(series.values) < width:
        raise DataError(
            f"series {series.region_id!r}/{series.variable!r} has "
            f"{len(series.values)} values; needs at least {width}"
        )


def forecast_series(predict, series, cfg: ForecastConfig) -> list[ForecastResult]:
    """Forecast every series of one variable from its trailing lookback window.

    ``series`` holds objects with ``region_id``, ``variable``, ``years``
    and ``values`` (such as ``ingest.RegionSeries``); all of them roll
    together through ``predict``. Returns one result per series, in order.
    """
    for s in series:
        require_window(s, cfg.lookback)
    if not series:
        return []
    windows = np.array([np.asarray(s.values, dtype=float)[-cfg.lookback :] for s in series])
    projected = forecast(predict, windows, cfg)
    return [
        ForecastResult(
            region_id=s.region_id,
            variable=s.variable,
            start_year=int(s.years[-1]) + 1,
            values=values,
        )
        for s, values in zip(series, projected)
    ]
