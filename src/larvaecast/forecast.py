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
``forecast_series`` returns each forecast as an ``ingest.RegionSeries``
whose years continue those of the series it rolled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .ingest import RegionSeries
from .preprocess import standardize_rows


def check_window(lookback: int, horizon: int) -> None:
    """Raise ConfigError unless a block of ``horizon`` predictions fits the
    rolled window of ``lookback`` values, both positive."""
    for name, value in (("lookback", lookback), ("horizon", horizon)):
        if value < 1:
            raise ConfigError(f"{name} must be positive: {value}")
    if horizon > lookback:
        raise ConfigError("horizon must not exceed lookback")


@dataclass(frozen=True)
class ForecastConfig:
    lookback: int
    horizon: int
    rounds: int

    def __post_init__(self):
        check_window(self.lookback, self.horizon)
        if self.rounds < 1:
            raise ConfigError(f"rounds must be positive: {self.rounds}")


def forecast(predict, windows, cfg: ForecastConfig, names=None) -> np.ndarray:
    """Recursive forecast of ``rounds`` blocks for each input window.

    ``predict`` maps an (m, lookback) batch of standardized windows to
    an (m, horizon) batch of standardized predictions. ``windows`` is an
    (m, lookback) array (or a list of length-lookback sequences) in
    original units; the result is (m, horizon * rounds), also in
    original units. Rows are independent of each other. A window of any
    round that is too large to standardize is a DataError naming its row
    (``names[i]``, see ``standardize_rows``).
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != cfg.lookback:
        raise ShapeError(
            f"windows must be (m, {cfg.lookback}), got shape {windows.shape}"
        )
    p = cfg.horizon
    x, mu, sigma = standardize_rows(windows, names=names)
    collected = []
    for _ in range(cfg.rounds):
        y = np.asarray(predict(x), dtype=float)
        if y.shape != (x.shape[0], p):
            raise ShapeError(
                f"model must predict {(x.shape[0], p)} values, got shape {y.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # the next standardize checks
            y = y * sigma + mu
            x = x * sigma + mu
        collected.append(y)
        x, mu, sigma = standardize_rows(np.concatenate([x[:, p:], y], axis=1), names=names)
    return np.concatenate(collected, axis=1)


def require_window(series, width: int) -> None:
    """Raise DataError, naming the region and variable, if a series is
    shorter than one window of ``width`` values."""
    if len(series.values) < width:
        raise DataError(
            f"series {series.region_id!r}/{series.variable!r} has "
            f"{len(series.values)} values; needs at least {width}"
        )


def forecast_series(predict, series, cfg: ForecastConfig) -> list[RegionSeries]:
    """Forecast every series of one variable from its trailing lookback window.

    ``series`` holds ``RegionSeries`` of one variable; all of them roll
    together through ``predict``. Returns one ``RegionSeries`` per series,
    in order, whose years continue the input's; a window too large to
    standardize, in any round, is a DataError naming its series.
    """
    for s in series:
        require_window(s, cfg.lookback)
    windows = np.array([np.asarray(s.values, dtype=float)[-cfg.lookback :] for s in series])
    projected = forecast(predict, windows, cfg,
                         [f"series {s.region_id}/{s.variable}" for s in series])
    return [
        RegionSeries(s.region_id, s.variable,
                     list(range(s.years[-1] + 1, s.years[-1] + 1 + values.size)), values)
        for s, values in zip(series, projected)
    ]
