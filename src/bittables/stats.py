"""Uniformity checking for sampler output."""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

__all__ = ["UniformityReport", "chi_square_threshold", "chi_square_uniformity"]


@dataclass(frozen=True)
class UniformityReport:
    """Result of a chi-square test against the uniform law on K outcomes."""

    counts: tuple
    total: int
    categories: int
    expected: float
    statistic: float
    df: int
    significance: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        """The fields in order, `counts` as a list."""
        return {**asdict(self), "counts": list(self.counts)}


def chi_square_threshold(df: int, significance: float) -> float:
    """Upper-tail chi-square quantile by the Wilson-Hilferty cube rule.

    The approximation maps the normal quantile z through
    df * (1 - 2/(9 df) + z * sqrt(2/(9 df)))**3; for df >= 1 and the usual
    significance levels it is accurate to a few parts per thousand.
    """
    if df < 1:
        raise ValueError(f"need df >= 1, got {df}")
    if not (0.0 < significance < 1.0):
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    z = NormalDist().inv_cdf(1.0 - significance)
    k = float(df)
    return k * (1.0 - 2.0 / (9.0 * k) + z * math.sqrt(2.0 / (9.0 * k))) ** 3


def chi_square_uniformity(counts, K: int, significance: float = 0.01) -> UniformityReport:
    """Pearson chi-square test of observed counts against uniform on K outcomes.

    `counts` holds observed frequencies per outcome; fewer than K entries are
    padded with zeros (outcomes never seen).  Counts must be integers; a
    float raises TypeError.  The statistic is
    sum((O_k - N/K)**2 / (N/K)) on K - 1 degrees of freedom; counts (60, 40)
    on two outcomes give exactly 4.0.
    """
    o = np.array([operator.index(x) for x in counts], dtype=float)
    if len(o) > K:
        raise ValueError(f"expected at most {K} counts, got {len(o)}")
    if np.any(o < 0):
        raise ValueError("counts must be nonnegative")
    if K < 2:
        raise ValueError(f"need at least two outcomes, got {K}")
    if len(o) < K:
        o = np.concatenate([o, np.zeros(K - len(o))])
    total = float(o.sum())
    if total <= 0:
        raise ValueError("need at least one observation")
    expected = total / K
    statistic = float(((o - expected) ** 2 / expected).sum())
    df = K - 1
    threshold = chi_square_threshold(df, significance)
    return UniformityReport(
        counts=tuple(int(x) for x in o),
        total=int(total),
        categories=K,
        expected=expected,
        statistic=statistic,
        df=df,
        significance=significance,
        threshold=threshold,
        passed=statistic <= threshold,
    )
