"""Statistical transforms: log-scaled counts and invertible z-score scalers.

Larvae counts are modeled as log10(count + 1) so zero counts stay zero.
Features and windows are z-scored with population standard deviation; a
degenerate sigma (below SIGMA_FLOOR) is replaced by 1 so constant columns
become a pure mean shift instead of a division by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError

SIGMA_FLOOR = 1e-9


def guard_sigma(sigma: np.ndarray) -> np.ndarray:
    """An array of standard deviations with each degenerate one replaced by 1."""
    return np.where(sigma < SIGMA_FLOOR, 1.0, sigma)


def standardize_rows(x, width: int | None = None, names=None):
    """``(z, mu, sigma)``: each row of a 2-D ``x`` z-scored by the population
    mean and guarded sigma of its first ``width`` values (all by default),
    with mu and sigma (rows, 1). LSTM training and every forecast round use it.
    A row whose sigma or z-scores are not finite (values so large that
    their spread overflows) is a DataError naming it: ``names[i]``, or
    ``row i`` without names."""
    x = np.asarray(x, dtype=float)
    head = x[:, :width]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = head.mean(axis=1, keepdims=True)
        sigma = guard_sigma(head.std(axis=1, keepdims=True))
        z = (x - mu) / sigma
    finite = np.isfinite(sigma[:, 0]) & np.isfinite(z).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        name = f"row {i}" if names is None else names[i]
        raise DataError(f"{name}: a window is too large to standardize (mean "
                        f"{float(mu[i, 0])!r}, standard deviation {float(sigma[i, 0])!r})")
    return z, mu, sigma


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


@dataclass(frozen=True, eq=False)
class StandardScaler:
    """Per-column z-score statistics: ``fit_scaler`` builds them from an
    (n, columns) matrix and ``n_fit_rows`` is that n; a scalers document
    stores the same three fields."""

    mean: np.ndarray
    std: np.ndarray
    n_fit_rows: int

    def transform(self, values):
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def inverse_transform(self, values):
        return np.asarray(values, dtype=float) * self.std + self.mean


def fit_scaler(values) -> StandardScaler:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataError(f"scaler input must be (n, columns), got shape {values.shape}")
    if values.size == 0:
        raise DataError("cannot fit a scaler on an empty array")
    return StandardScaler(values.mean(axis=0), guard_sigma(values.std(axis=0)), values.shape[0])
