"""Summary statistics for timings.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
tail figure is never read off a handful of samples.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # rounding first keeps 99.9% of 10,000 at rank 9,990, not 9,991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    tail_p: float | None
    tail: float | None

    def describe(self, unit: str) -> str:
        text = f"median {self.median:.6g} {unit}"
        if self.tail_p is None:
            text += ", too few samples for a tail percentile"
        else:
            text += f", p{self.tail_p:g} {self.tail:.6g} {unit}"
        return text + f", n={self.n}"


def summarize(values) -> Summary:
    values = list(values)
    p = tail_percentile(len(values))
    return Summary(
        n=len(values),
        median=statistics.median(values),
        tail_p=p,
        tail=None if p is None else percentile(values, p),
    )


def relative_spread(values) -> float:
    """Distance between first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
