"""Small statistics helpers used by the estimators and the harness."""

from __future__ import annotations

import math

#: two-sided 95% normal quantile, pinned for byte-stable reports
Z95 = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = `Z95`) for a binomial proportion.

    Preferred over the Wald interval for stability near p = 0 or 1.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside 0..trials")
    z = Z95
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi
