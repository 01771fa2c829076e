"""Summary statistics and the attempted/failed tally."""

from __future__ import annotations

import math
import statistics
import sys

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has enough samples beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def median_of_medians(groups) -> float:
    """Median over groups of each group's median (e.g. over bundles of reps)."""
    return statistics.median(statistics.median(g) for g in groups)


class Tally:
    """Counts operations and checks; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok
