"""Live multiplexing of campaign journals into one telemetry view.

A ``campaign``/``parallel``/population run writes one journal (or, for
an operator watching several fleets, many); the exporter and the
``repro top`` dashboard both want a single rollup: how many experiments
and anomalies so far, which workers are alive, what the tail latency
and cache hit rate look like *right now*.  :class:`CampaignAggregator`
owns one :class:`~repro.obs.stream.JournalFollower` per journal and
feeds each polled record, once, to that journal's folds — the
:mod:`repro.obs.folds` classes ``repro report`` and ``journal diff``
run post-hoc, so the per-source rollups (TTFA, coverage, acceptance,
latency-p99 median, per-chain SA rows) equal the finished run's by
construction.  Heartbeats classify each (source, worker slot) alive or
stale by wall-clock age.

No record outlives the poll that read it: a refresh costs O(records
since the last refresh), and memory holds fold state, not records (the
exact latency median keeps one float per latency summary, and each
run's :class:`~repro.obs.coverage.CoverageTracker` keeps a key per
distinct workload point for ``unique_points``, which neither the
aggregator nor ``journal diff`` reads: about 1.9 MB, some 221 B a
point, for the 8,603 points of a 10 h 8-chain F journal).  A corrupt line or a
malformed record stops its source, whose rollup carries the error; the
other sources keep folding.  The aggregator is strictly a *reader*:
it never touches the writer's process, RNG, or journal, so an
aggregated run stays bit-identical to an unobserved one.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Optional, Sequence, Union

from repro.obs.folds import (
    MALFORMED_RECORD_ERRORS,
    TIMELINE_TAIL,
    Annealing,
    Coverage,
    FirstAnomaly,
    Latency,
    RecordCounts,
    Telemetry,
    dispatcher,
    malformed_record,
)
from repro.obs.metrics import HistogramSummary
from repro.obs.stream import JournalFollower

#: A worker whose last heartbeat is older than this many wall-clock
#: seconds is reported stale (the default ``repro top`` threshold).
DEFAULT_STALE_AFTER = 30.0


class _SourceState:
    """One journal's follower and folds; :attr:`records` holds only the
    last poll's records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.follower = JournalFollower(path)
        self.records: list[dict] = []
        self.error: Optional[str] = None
        folds = (
            RecordCounts(), FirstAnomaly(), Annealing(), Coverage(),
            Latency(), Telemetry(),
        )
        (self.counts, self.ttfa, self.annealing, self.coverage,
         self.latency, self.telemetry) = folds
        self._step = dispatcher(*folds)

    def absorb(self) -> list[dict]:
        """Poll the follower and fold what it read (maybe nothing).

        A corrupt line or a malformed record sets :attr:`error`; from
        then on the source folds nothing more."""
        self.records = []
        if self.error is not None:
            return self.records
        try:
            self.records = self.follower.poll()
        except ValueError as error:  # mid-file corruption
            self.error = str(error)
            return self.records
        for index, record in enumerate(self.records):
            try:
                self._step(record)
            except MALFORMED_RECORD_ERRORS as error:
                number = self.follower.records_seen - len(self.records) + index
                self.error = str(malformed_record(
                    f"{self.path}: line {_line_of(self.path, number + 1)}",
                    record, error,
                ))
                del self.records[index:]
                break
        return self.records

    def rollup(self) -> dict:
        return {
            "path": self.path,
            "records": self.counts.records,
            "error": self.error,
            "runs": self.counts.count("run_start"),
            "complete_runs": self.counts.complete_runs,
            "experiments": self.counts.count("experiment"),
            "anomalies": self.counts.count("anomaly"),
            "skips": self.counts.count("skip"),
            "time_to_first_anomaly_seconds": self.ttfa.result(),
            "coverage_fraction": self.coverage.result(),
            "acceptance_rate": self.annealing.result(),
            "latency_p99_us_median": self.latency.median(),
        }


def _line_of(path: str, number: int) -> int:
    """The 1-based line of a journal's ``number``-th record (blank lines
    count as lines, not records).  Re-reads the file: error path only."""
    line = 0
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, 1):
            number -= bool(raw.strip())
            if not number:
                break
    return line


class CampaignAggregator:
    """Fold one or more live journals into a single telemetry snapshot."""

    def __init__(
        self,
        paths: Sequence[Union[str, os.PathLike]],
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.sources = [_SourceState(os.fspath(p)) for p in paths]
        self.stale_after = stale_after

    def refresh(self) -> int:
        """Poll every source; returns how many new records arrived."""
        return sum(len(source.absorb()) for source in self.sources)

    def snapshot(self, now: Optional[float] = None) -> dict:
        """The whole telemetry view as one JSON-able dict.

        ``now`` (wall clock) anchors heartbeat ages; injectable so the
        liveness classification is testable without sleeping.
        """
        now = time.time() if now is None else now
        sources = [source.rollup() for source in self.sources]
        totals = {
            key: sum(entry[key] for entry in sources)
            for key in ("experiments", "anomalies", "skips", "runs",
                        "complete_runs", "records")
        }
        ttfas = [
            entry["time_to_first_anomaly_seconds"] for entry in sources
            if entry["time_to_first_anomaly_seconds"] is not None
        ]
        coverages = [
            entry["coverage_fraction"] for entry in sources
            if entry["coverage_fraction"] is not None
        ]
        workers = []
        for path, worker, done, total, wall_time in sorted(
            (source.path, worker, *beat)
            for source in self.sources
            for worker, beat in source.telemetry.workers.items()
        ):
            age = max(0.0, now - wall_time)
            workers.append({
                "source": path, "worker": worker, "done": done,
                "total": total, "wall_time": wall_time,
                "age_seconds": age, "alive": age <= self.stale_after,
            })
        lookups = sum(s.telemetry.cache_lookups for s in self.sources)
        hits = sum(s.telemetry.cache_hits for s in self.sources)
        latency = HistogramSummary()
        for source in self.sources:
            latency.merge(source.latency.histogram)
        totals.update({
            "time_to_first_anomaly_seconds": min(ttfas) if ttfas else None,
            "coverage_fraction": max(coverages) if coverages else None,
            "cache_hit_rate": hits / lookups if lookups else None,
            "latency_p99_us": (
                latency.percentile(0.99) if latency.count else None
            ),
            "latency_records": latency.count,
            "workers_alive": sum(1 for w in workers if w["alive"]),
            "workers_total": len(workers),
        })
        return {
            "sources": sources,
            "totals": totals,
            "workers": workers,
            "timeline": self._timeline(),
            "stale_after": self.stale_after,
        }

    def _timeline(self) -> list:
        """The latest anomalies, sources merged by simulated time."""
        tails = [
            [{"source": source.path, **entry}
             for entry in source.telemetry.result()]
            for source in self.sources
        ]
        merged = list(
            heapq.merge(*tails, key=lambda entry: entry["time_seconds"])
        )
        return merged[-TIMELINE_TAIL:]

    def chain_diagnostics(self) -> list:
        """Per-chain SA rows across every source (``repro top``)."""
        return [
            (source.path, diag)
            for source in self.sources
            for diag in source.annealing.diagnostics(source.ttfa)
        ]
