"""Goodness-of-fit helpers used only by the tests."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from noncrossing import limitlaws


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection (ample for thresholds)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly inside (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if limitlaws.std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_square_statistic(counts: Iterable[float], expected: Iterable[float]) -> float:
    c = np.asarray(list(counts), dtype=float)
    e = np.asarray(list(expected), dtype=float)
    if c.shape != e.shape or np.any(e <= 0):
        raise ValueError("counts and positive expectations must align")
    return float(np.sum((c - e) ** 2 / e))


def chi_square_critical(df: int, significance: float) -> float:
    """Upper chi-square quantile via the Wilson-Hilferty cube approximation."""
    if df < 1:
        raise ValueError("df must be >= 1")
    z = normal_quantile(1.0 - significance)
    t = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    return df * t**3
