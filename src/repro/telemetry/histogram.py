"""Shared percentile and log-spaced histogram primitives.

Historically :mod:`repro.sim.stats` (LatencyRecorder) and
:mod:`repro.telemetry.attribution` (BlameTable) each carried their own
copy of the nearest-rank percentile and the log-spaced bucket edges.
This module is the single home for both, and also backs the windowed
Histogram instrument in :mod:`repro.telemetry.metrics`.

It deliberately imports nothing from the rest of the package so it can
be used from either side of the ``sim`` / ``telemetry`` boundary
without creating an import cycle.
"""

import math


def nearest_rank(ordered, fraction):
    """Nearest-rank percentile over an ascending list (float-safe).

    Float products like ``0.1 * 30`` land a hair above the true rank
    boundary (``3.0000000000000004``), so a naive ceil over-reports the
    percentile by a whole rank at small sample counts.  The epsilon
    recovers the decimal intent; exact-rational ceil of the *float*
    would be worse (``0.9`` converts above 9/10, making p90 of ten
    samples the maximum).
    """
    if not ordered:
        return 0.0
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def log_edges(decades=7, per_decade=4, base=1e-6):
    """Log-spaced bucket edges: ``per_decade`` buckets per power of ten
    starting at ``base`` (seconds), spanning ``decades`` decades."""
    return [10 ** (exp / float(per_decade)) * base
            for exp in range(decades * per_decade)]


#: the repo-wide default edges: powers of 10 from 1µs, 4 buckets/decade.
#: (Bit-identical to the old ``BlameTable.HISTOGRAM_EDGES``.)
DEFAULT_LOG_EDGES = log_edges()


def bucket_index(value, edges):
    """Index of the bucket ``value`` falls in: ``i`` means
    ``edges[i-1] <= value < edges[i]``; ``len(edges)`` is the overflow
    bucket for values beyond the top edge."""
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if value < edges[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def percentile_from_counts(counts, edges, fraction, upper=None):
    """Nearest-rank percentile estimated from bucket counts.

    Returns the *upper edge* of the bucket containing the rank (a
    conservative estimate); ``upper`` caps the overflow bucket (use the
    observed maximum when known).
    """
    total = sum(counts)
    if not total:
        return 0.0
    rank = math.ceil(fraction * total - 1e-9)
    rank = min(max(rank, 1), total)
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= rank:
            if index >= len(edges):
                return upper if upper is not None else math.inf
            edge = edges[index]
            return min(edge, upper) if upper is not None else edge
    return upper if upper is not None else math.inf


class LogHistogram:
    """A fixed-edge log-spaced histogram: counts, sum, and max.

    Unlike :meth:`BlameTable.histogram` (which skips zero-valued blame
    samples), every observation counts here — non-positive values land
    in the first bucket so ``count`` always equals the number of
    :meth:`observe` calls.
    """

    __slots__ = ("edges", "counts", "count", "sum", "max")

    def __init__(self, edges=None):
        self.edges = DEFAULT_LOG_EDGES if edges is None else list(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value):
        self.counts[bucket_index(value, self.edges) if value > 0 else 0] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def merge(self, other):
        """Fold ``other`` (same edges) into this histogram."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        return self

    def percentile(self, fraction):
        """Bucket-resolution percentile (upper edge, capped at the
        observed maximum)."""
        return percentile_from_counts(self.counts, self.edges, fraction,
                                      upper=self.max)

    def snapshot(self):
        """A JSON-friendly cumulative snapshot of the current state."""
        return {"counts": list(self.counts), "count": self.count,
                "sum": self.sum, "max": self.max}
