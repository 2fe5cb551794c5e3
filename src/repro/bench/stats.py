"""Statistics for the benchmark harness.

The Appendix reports means with 99%-confidence intervals (Figure 5's
dashed lines) and the variance of each data set; this module computes
those the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "summarize", "mean", "variance"]

# two-sided 99% critical values of Student's t for small samples; beyond
# the table we use the normal approximation (z = 2.576)
_T99 = {1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707,
        7: 3.499, 8: 3.355, 9: 3.250, 10: 3.169, 12: 3.055, 14: 2.977,
        16: 2.921, 18: 2.878, 20: 2.845, 25: 2.787, 30: 2.750, 40: 2.704,
        60: 2.660, 100: 2.626}
_Z99 = 2.576


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Sample variance (n-1 denominator), 0.0 for fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (n - 1)


def _t99(df: int) -> float:
    if df <= 0:
        return _Z99
    best = _Z99
    for table_df in sorted(_T99):
        if table_df <= df:
            best = _T99[table_df]
        else:
            break
    # exact hits use the table; otherwise the next-smaller df's (slightly
    # conservative) value
    return _T99.get(df, best)


@dataclass
class Summary:
    """One measured series: what each point in an Appendix figure is."""

    n: int
    mean: float
    variance: float
    ci99: float          # half-width of the 99% confidence interval
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample variance, and 99% CI half-width of ``values``."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty series")
    m = mean(values)
    var = variance(values)
    n = len(values)
    if n > 1 and var > 0:
        ci = _t99(n - 1) * math.sqrt(var / n)
    else:
        ci = 0.0
    return Summary(n=n, mean=m, variance=var, ci99=ci,
                   minimum=min(values), maximum=max(values))
