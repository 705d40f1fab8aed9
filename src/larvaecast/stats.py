"""Evaluation statistics: Pearson correlation, its significance, residual signs.

The p-value comes from the t-distribution with n - 2 degrees of freedom,
evaluated through the regularized incomplete beta function
I_x(a, b) with x = nu / (nu + t^2), a = nu / 2, b = 1/2. The incomplete
beta uses a modified Lentz continued fraction, so no statistics package
is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, ShapeError

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500


@dataclass(frozen=True)
class CorrelationReport:
    r: float
    n: int
    t_stat: float
    p_value: float
    tail: str


@dataclass(frozen=True)
class ResidualSummary:
    """Residual = truth - prediction: positive means an underestimate."""

    n_positive: int
    n_negative: int
    n_zero: int
    max_positive: float
    max_negative: float


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("pearson_r needs two equal-length 1-D sequences")
    if x.size < 3:
        raise DataError("pearson_r needs at least 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise DataError("correlation undefined for a constant sequence")
    # Rounding can push an exact linear relation just past +-1.
    return float(np.clip(float(xc @ yc) / denom, -1.0, 1.0))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # The even and then the odd term of the fraction.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise DataError("incomplete beta continued fraction failed to converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError("betainc_reg requires a > 0 and b > 0")
    if x < 0 or x > 1:
        raise DomainError("betainc_reg requires x in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_statistic(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        raise DataError("t statistic is infinite for a perfect correlation")
    return r * math.sqrt((n - 2) / (1.0 - r * r))


def correlation_p_value(r: float, n: int, tail: str = "one") -> float:
    """Significance of a Pearson r under the null of zero correlation."""
    if tail not in ("one", "two"):
        raise DomainError(f"unknown tail convention: {tail!r}")
    if n < 3:
        raise DomainError("p-value needs n >= 3")
    if abs(r) > 1:
        raise DomainError("correlation must lie in [-1, 1]")
    if abs(r) == 1.0:
        return 1.0 if tail == "one" and r < 0 else 0.0
    t = t_statistic(r, n)
    nu = n - 2
    p_two = betainc_reg(nu / 2.0, 0.5, nu / (nu + t * t))
    if tail == "two":
        return p_two
    return p_two / 2.0 if r >= 0 else 1.0 - p_two / 2.0


def correlation_report(x, y, tail: str = "one") -> CorrelationReport:
    r = pearson_r(x, y)
    n = len(x)
    return CorrelationReport(
        r=r,
        n=n,
        t_stat=t_statistic(r, n),
        p_value=correlation_p_value(r, n, tail),
        tail=tail,
    )


def residual_summary(pred, truth) -> ResidualSummary:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeError("residual_summary needs equal-length sequences")
    residuals = truth - pred
    positive = residuals[residuals > 0]
    negative = residuals[residuals < 0]
    return ResidualSummary(
        n_positive=int(positive.size),
        n_negative=int(negative.size),
        n_zero=int(residuals.size - positive.size - negative.size),
        max_positive=float(positive.max()) if positive.size else 0.0,
        max_negative=float(negative.min()) if negative.size else 0.0,
    )
