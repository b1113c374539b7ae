"""Mergeable streaming histograms over fixed log buckets.

A :class:`HistogramSummary` keeps count / sum / min / max plus one
count per :data:`BUCKET_BOUNDS` bucket rather than raw samples, so a
million observations cost four floats and 58 bucket counts, two
summaries merge exactly, and a percentile interpolates inside its
bucket.  The journal
folds (:mod:`repro.obs.folds`), the live aggregator and the latency
model's per-WR grid all use it; nothing keeps a live tally beside the
journal.
"""

from __future__ import annotations

import bisect
import dataclasses


def _bucket_bounds() -> tuple[float, ...]:
    # 1-2.5-5 log ladder over 1ns .. ~10^9: wide enough for both span
    # seconds and simulated-second observations.
    return tuple(
        mantissa * 10.0 ** exponent
        for exponent in range(-9, 10)
        for mantissa in (1.0, 2.5, 5.0)
    )


#: Fixed upper bounds of the percentile buckets (plus an implicit
#: overflow bucket).  Fixed bounds keep histograms mergeable and O(1)
#: per observation; percentiles interpolate linearly inside the winning
#: bucket and are clamped to the observed [min, max].
BUCKET_BOUNDS = _bucket_bounds()


@dataclasses.dataclass
class HistogramSummary:
    """Streaming summary of one histogram series."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    bucket_counts: list = dataclasses.field(
        default_factory=lambda: [0] * (len(BUCKET_BOUNDS) + 1), repr=False
    )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.bucket_counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1

    def merge(self, other: "HistogramSummary") -> None:
        """Fold another summary's observations into this one."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Bucket-interpolated percentile estimate, clamped to [min, max].

        The requested rank is located in a bucket, then interpolated
        linearly between the bucket's bounds (narrowed to the observed
        [min, max]) by its position among the bucket's observations —
        so a distribution that lands entirely inside one bucket still
        resolves sub-bucket percentiles instead of collapsing every
        quantile onto the bucket's upper bound.
        """
        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS) else self.maximum
                )
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else self.minimum
                upper = min(upper, self.maximum)
                lower = min(max(lower, self.minimum), upper)
                position = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }
