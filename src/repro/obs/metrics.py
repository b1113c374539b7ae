"""Labeled metrics registry: counters, gauges, histograms, timers.

A deliberately small, dependency-free registry in the Prometheus data
model: a metric is a name plus a sorted label set; counters accumulate,
gauges overwrite, histograms keep a streaming summary (count / sum /
min / max) rather than raw samples so a million observations cost four
floats.  ``timer()`` is the span API: a context manager observing its
real elapsed seconds into a histogram.

The registry is thread-safe (the campaign executor reports fan-out
stats from the parent thread while a search instruments itself) and its
``snapshot()`` is plain JSON — it is what the run journal's ``snapshot``
and ``run_end`` records embed.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
import time
from typing import Iterator


def render_key(name: str, labels: dict) -> str:
    """Prometheus-style rendered series name: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


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


class MetricsRegistry:
    """Thread-safe store of labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, HistogramSummary] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    # -- the instrument API ------------------------------------------------

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` (default 1) to a monotonically growing series."""
        key = self._key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a point-in-time series to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[self._key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one sample into a histogram series."""
        key = self._key(name, labels)
        with self._lock:
            summary = self._histograms.get(key)
            if summary is None:
                summary = self._histograms[key] = HistogramSummary()
            summary.observe(float(value))

    def timer(self, name: str, **labels) -> "_Span":
        """Span API: ``with metrics.timer("solve.wall"): ...`` observes
        the block's real elapsed seconds into the named histogram."""
        return _Span(self, name, labels)

    # -- reading back ------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of a counter or gauge series (0.0 if unseen)."""
        key = self._key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0.0)

    def histogram(self, name: str, **labels) -> HistogramSummary:
        """Copy of a histogram summary (empty if the series is unseen)."""
        key = self._key(name, labels)
        with self._lock:
            summary = self._histograms.get(key)
            if summary is None:
                return HistogramSummary()
            return dataclasses.replace(
                summary, bucket_counts=list(summary.bucket_counts)
            )

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """Counter series whose name starts with ``prefix``, rendered.

        The CLI uses this to summarise one namespace after a run (e.g.
        every ``faults.*`` series of a resilient campaign) without
        dumping the whole registry.
        """
        with self._lock:
            return {
                render_key(name, dict(labels)): value
                for (name, labels), value in sorted(self._counters.items())
                if name.startswith(prefix)
            }

    def series(self) -> Iterator[str]:
        """All rendered series names, sorted."""
        with self._lock:
            keys = (
                list(self._counters) + list(self._gauges)
                + list(self._histograms)
            )
        return iter(sorted(render_key(name, dict(labels)) for name, labels in keys))

    def snapshot(self) -> dict:
        """JSON-able dump of every series (journal ``snapshot`` payload)."""
        with self._lock:
            return {
                "counters": {
                    render_key(name, dict(labels)): value
                    for (name, labels), value in sorted(self._counters.items())
                },
                "gauges": {
                    render_key(name, dict(labels)): value
                    for (name, labels), value in sorted(self._gauges.items())
                },
                "histograms": {
                    render_key(name, dict(labels)): summary.as_dict()
                    for (name, labels), summary in sorted(
                        self._histograms.items()
                    )
                },
            }

    def describe(self) -> str:
        """Human-readable registry dump (CLI surface)."""
        snap = self.snapshot()
        lines = []
        for key, value in snap["counters"].items():
            lines.append(f"  {key:<48} {value:>12g}")
        for key, value in snap["gauges"].items():
            lines.append(f"  {key:<48} {value:>12g} (gauge)")
        for key, summary in snap["histograms"].items():
            lines.append(
                f"  {key:<48} n={summary['count']} "
                f"mean={summary['mean']:.4g} "
                f"p50={summary['p50']:.4g} p99={summary['p99']:.4g} "
                f"min={summary['min']:.4g} max={summary['max']:.4g}"
            )
        return "\n".join(lines) if lines else "  (no metrics recorded)"


class _Span:
    """Context manager observing its real elapsed seconds."""

    def __init__(self, registry: MetricsRegistry, name: str, labels: dict):
        self._registry = registry
        self._name = name
        self._labels = labels
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._started, **self._labels
        )
