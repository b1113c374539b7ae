"""Data series behind Figures 4–6.

Figure 4: mean time to find the k-th anomaly, per approach, with error
bars over seeds.  Figure 5 is the same shape for the ablation variants.
Figure 6: one diagnostic counter's (normalised) trajectory during a
search, with marks at each anomaly discovery.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class TimeToFindSeries:
    """Time to the k-th distinct anomaly for one approach (Fig. 4/5 bars)."""

    approach: str
    #: mean_hours[k-1] is the mean simulated time to the k-th anomaly,
    #: computed over the seeds that found at least k.
    mean_hours: tuple[float, ...]
    std_hours: tuple[float, ...]
    #: how many seeds found at least k anomalies (bars shorter than the
    #: full anomaly count reflect approaches that plateau, like random).
    support: tuple[int, ...]
    seeds: int

    @property
    def anomalies_found(self) -> int:
        """Anomaly count found by a majority of seeds."""
        return sum(1 for s in self.support if s * 2 > self.seeds)


def _first_hit_sequences(per_seed_hits: Sequence[dict]) -> list[list[float]]:
    """Sorted discovery times (hours) per seed."""
    return [
        sorted(seconds / 3600.0 for seconds in hits.values())
        for hits in per_seed_hits
    ]


def time_to_find_series(
    approach: str,
    per_seed_hits: Sequence[dict],
    max_anomalies: int,
) -> TimeToFindSeries:
    """Aggregate per-seed tag→time maps into a Figure 4 series."""
    sequences = _first_hit_sequences(per_seed_hits)
    means, stds, support = [], [], []
    for k in range(1, max_anomalies + 1):
        times = [seq[k - 1] for seq in sequences if len(seq) >= k]
        support.append(len(times))
        if times:
            means.append(float(np.mean(times)))
            stds.append(float(np.std(times)))
        else:
            means.append(float("nan"))
            stds.append(float("nan"))
    return TimeToFindSeries(
        approach=approach,
        mean_hours=tuple(means),
        std_hours=tuple(stds),
        support=tuple(support),
        seeds=len(sequences),
    )


@dataclasses.dataclass(frozen=True)
class CounterTrace:
    """Figure 6: one counter's normalised per-experiment trajectory."""

    approach: str
    counter: str
    hours: tuple[float, ...]
    normalised_values: tuple[float, ...]
    #: hours at which a new anomaly was found (the red marks of Fig. 6).
    anomaly_marks: tuple[float, ...]

    def bucketed(self, buckets: int = 40) -> list[tuple[float, float]]:
        """(hour, max normalised value) per time bucket, for ascii plots."""
        if not self.hours:
            return []
        edges = np.linspace(0.0, max(self.hours), buckets + 1)
        out = []
        values = np.array(self.normalised_values)
        hours = np.array(self.hours)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if i == buckets - 1:
                mask = (hours >= lo) & (hours <= hi)  # include the end
            else:
                mask = (hours >= lo) & (hours < hi)
            out.append((float((lo + hi) / 2), float(values[mask].max())
                        if mask.any() else 0.0))
        return out


def counter_trace(
    approach: str,
    events: Iterable,
    counter: str,
    max_value: Optional[float] = None,
) -> CounterTrace:
    """Extract a Figure 6 trace from a search event log.

    Values are normalised by the maximum observed (as the paper does:
    "Counter values are normalized based on the maximum value we
    observed in the search").
    """
    hours, values, marks = [], [], []
    for event in events:
        snapshot = getattr(event, "counters", None)
        if snapshot and counter in snapshot:
            value = float(snapshot[counter])
        elif event.counter == counter:
            value = event.counter_value
        else:
            continue
        hours.append(event.time_seconds / 3600.0)
        values.append(value)
        if event.new_anomaly_index is not None:
            marks.append(event.time_seconds / 3600.0)
    peak = max_value if max_value is not None else (max(values) if values else 1.0)
    peak = peak or 1.0
    return CounterTrace(
        approach=approach,
        counter=counter,
        hours=tuple(hours),
        normalised_values=tuple(v / peak for v in values),
        anomaly_marks=tuple(marks),
    )
