"""Statistical transforms: log-scaled counts and invertible z-score scalers.

Larvae counts are modeled as log10(count + 1) so zero counts stay zero.
Features and windows are z-scored with population standard deviation; a
degenerate sigma (below SIGMA_FLOOR) is replaced by 1 so constant columns
become a pure mean shift instead of a division by zero.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DomainError

SIGMA_FLOOR = 1e-9


def guard_sigma(sigma):
    """Replace degenerate standard deviations by 1 (scalar or array)."""
    sigma = np.asarray(sigma, dtype=float)
    guarded = np.where(sigma < SIGMA_FLOOR, 1.0, sigma)
    return float(guarded) if guarded.ndim == 0 else guarded


def standardize_rows(x, width: int | None = None):
    """``(z, mu, sigma)``: each row of a 2-D ``x`` z-scored by the population
    mean and guarded sigma of its first ``width`` values (all by default),
    with mu and sigma (rows, 1). LSTM training and every forecast round use it."""
    x = np.asarray(x, dtype=float)
    head = x[:, :width]
    mu = head.mean(axis=1, keepdims=True)
    sigma = guard_sigma(head.std(axis=1, keepdims=True))
    return (x - mu) / sigma, mu, sigma


class LogCountTransform:
    """log10(count + offset) with an exact inverse for counts >= 0."""

    def __init__(self, offset: float = 1.0):
        if offset < 0:
            raise DomainError("log transform offset must be non-negative")
        self.offset = float(offset)

    def transform(self, counts):
        counts = np.asarray(counts, dtype=float)
        if np.any(counts < 0):
            raise DomainError("larvae counts must be non-negative")
        return np.log10(counts + self.offset)

    def inverse(self, values):
        values = np.asarray(values, dtype=float)
        return np.power(10.0, values) - self.offset


class StandardScaler:
    """Z-score scaler; per-column when fitted on a 2-D matrix.

    Remembers how many rows it was fitted on so the pipeline can assert
    that only the training split fed the statistics.
    """

    def __init__(self):
        self.mean_ = None
        self.std_ = None
        self.n_fit_rows_ = 0

    def fit(self, values) -> "StandardScaler":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise DataError("cannot fit a scaler on an empty array")
        if values.ndim == 1:
            self.mean_ = float(values.mean())
            self.std_ = guard_sigma(values.std())
            self.n_fit_rows_ = values.shape[0]
        elif values.ndim == 2:
            self.mean_ = values.mean(axis=0)
            self.std_ = guard_sigma(values.std(axis=0))
            self.n_fit_rows_ = values.shape[0]
        else:
            raise DataError("scaler input must be 1-D or 2-D")
        return self

    def _check_fitted(self):
        if self.mean_ is None:
            raise DataError("scaler used before fit")

    def transform(self, values):
        self._check_fitted()
        return (np.asarray(values, dtype=float) - self.mean_) / self.std_

    def inverse_transform(self, values):
        self._check_fitted()
        return np.asarray(values, dtype=float) * self.std_ + self.mean_


def fit_scaler(values) -> StandardScaler:
    return StandardScaler().fit(values)
