"""Order statistics of the benchmark: tails, quartiles and verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make its value one or two outliers.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples (the epsilon
    keeps 99.9% of 10000 at 9990, not 9991)."""
    return math.ceil(pct * n / 100.0 - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, _rank(pct, len(ordered))) - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest ladder percentile that has at
    least :data:`MIN_BEYOND` samples beyond its rank, or ``None`` when
    there are too few samples for any."""
    n = len(values)
    for pct in TAIL_LADDER:
        rank = _rank(pct, n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own three quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(
    base: Sequence[float], new: Sequence[float], bound: float, better: str,
    judge_spread: bool = True,
) -> str:
    """Compare two sets of runs of one metric.

    ``regressed``: the new median is worse than the base median by more
    than ``bound`` (a share of the base median).  ``improved``: it is
    better by more than the base set's own spread and the two
    interquartile ranges do not overlap.  ``unresolved``: either set
    spreads wider than ``bound``, unless every new run beats every base
    run; ``judge_spread=False`` skips this, for a metric judged on its
    medians alone.  Otherwise ``unchanged``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    if judge_spread and max(spread(base), spread(new)) > bound:
        beats_all = all(sign * (n - b) < 0 for n in new for b in base)
        return "improved" if beats_all else "unresolved"
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    worse = sign * (nmed - bmed) / abs(bmed)
    if worse > bound:
        return "regressed"
    apart = nq3 < bq1 if better == "lower" else nq1 > bq3
    if worse < 0 and -worse > spread(base) and apart:
        return "improved"
    return "unchanged"
