"""The flight recorder: the façade every instrumented hot path calls.

A :class:`FlightRecorder` turns the search's events into JSONL run
journal records and periodic progress lines, behind one object that
the search machinery receives as an optional ``recorder`` parameter.
It keeps no tally of its own: every number a view shows is a fold of
the journal (:mod:`repro.obs.folds`).  The one fold state it holds is
``--coverage``'s per-run :class:`~repro.obs.coverage.CoverageTracker`
(the ``Coverage`` fold's), printed at the end instead of journaled.
Design rules the hot paths rely on:

* **zero-cost when absent** — every call site guards with a single
  ``recorder is not None`` check, so an uninstrumented run does no
  extra work;
* **no RNG, no clock writes** — the recorder only *observes*; it never
  consumes random draws or advances the simulated clock, so a recorded
  run is bit-identical to an unrecorded one (pinned by the test suite);
* **crash-safe** — journal records are written line-buffered as events
  happen, never batched until the end.

``record_report`` covers the process-parallel paths: a recorder holds
an open file handle and cannot cross a process boundary, so fleet /
campaign runs journal post-hoc from the reports their workers return.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

from repro.analysis.serialize import workload_to_list
from repro.obs.coverage import CoverageTracker
from repro.obs.journal import (
    RunJournal,
    anomaly_record,
    experiment_record,
    isolation_record,
)
from repro.obs.profiler import spans_records

#: Progress lines go through this logger at INFO (CLI surfaces enable it).
progress_logger = logging.getLogger("repro.obs.progress")


class FlightRecorder:
    """Journal + live progress for one search campaign."""

    def __init__(
        self,
        journal: Optional[RunJournal] = None,
        progress_every: int = 0,
        track_coverage: bool = False,
        heartbeats: bool = False,
    ) -> None:
        self.journal = journal
        #: Emit a progress snapshot every N experiments (0 = never).
        self.progress_every = progress_every
        #: Optional installed :class:`~repro.obs.profiler.SpanProfiler`
        #: (set by the CLI's ``--profile``); its spans flush to the
        #: journal at run_end/close.
        self.profiler = None
        #: Track 4-D workload-space coverage (one tracker per run, for
        #: ``--coverage``'s end-of-run table; never journaled).
        self.track_coverage = track_coverage
        self.coverage: Optional[CoverageTracker] = None
        #: Journal schema-v7 ``heartbeat`` records as fan-out tasks
        #: complete (live telemetry only).  Off by default: heartbeats
        #: are host time, which only the exporter / dashboard plane
        #: reads and canonical journal bytes drop.
        self.heartbeats = heartbeats
        #: Optional attached :class:`~repro.obs.export.TelemetryServer`
        #: (owned by the CLI: opened with the recorder, closed with it).
        self.telemetry = None
        #: Which population chain this recorder writes for.  ``None``
        #: (single-trajectory runs) stamps nothing, keeping legacy
        #: journals byte-identical; an int stamps every record with
        #: ``"chain": n`` (schema v5) so readers can demultiplex the
        #: interleaved streams of a population run.
        self.chain: Optional[int] = None
        self._experiments_seen = 0
        self._spans_flushed = 0
        #: Experiment count of the current run's last ``snapshot``
        #: record (None = none yet), so run_end can close the
        #: final-progress gap without duplicating a snapshot that the
        #: modulus already emitted at exactly the final count.
        self._last_snapshot_experiments: Optional[int] = None

    def for_chain(self, chain: int) -> "FlightRecorder":
        """A chain-stamped view sharing this recorder's journal.

        The population driver hands each SA chain its own view: records
        land interleaved in the one journal, each stamped with the
        chain id.  Views never own the journal — only the parent's
        :meth:`close` closes it — and carry no profiler: only the
        parent journals spans, those of every chain.
        """
        view = FlightRecorder(
            journal=self.journal,
            progress_every=self.progress_every,
            track_coverage=self.track_coverage,
            heartbeats=self.heartbeats,
        )
        view.chain = chain
        return view

    def _write(self, record: dict) -> None:
        if self.chain is not None:
            record["chain"] = self.chain
        self.journal.write(record)

    # -- run lifecycle -----------------------------------------------------

    def run_start(
        self,
        subsystem_name: str,
        counter_mode: str,
        use_mfs: bool,
        budget_hours: float,
        seed: Optional[int],
        space=None,
    ) -> None:
        self._last_snapshot_experiments = None
        if self.track_coverage:
            self.coverage = (
                CoverageTracker(space) if space is not None
                else CoverageTracker.for_subsystem(subsystem_name)
            )
        if self.journal is not None:
            self._write({
                "t": "run_start",
                "subsystem": subsystem_name,
                "counter_mode": counter_mode,
                "use_mfs": use_mfs,
                "budget_hours": budget_hours,
                "seed": seed,
            })

    def isolation(self, victim, victim_share: float, floor) -> None:
        """The co-run context of an isolation run (right after run_start).

        Journals the pinned victim, its bandwidth share, and the
        deterministic alone-floor the victim-degradation verdicts
        compare against, so a reader can interpret the run's
        ``interference`` values without re-solving anything.
        """
        if self.journal is not None:
            self._write(isolation_record(victim, victim_share, floor))

    def ranking(
        self, counters: list, dispersions: Optional[dict] = None
    ) -> None:
        if self.journal is not None:
            self._write({
                "t": "ranking",
                "counters": list(counters),
                "dispersions": dict(dispersions) if dispersions else None,
            })

    def run_end(self, report) -> None:
        self._run_end_totals(
            report.elapsed_seconds, report.experiments,
            report.skipped_points, len(report.anomalies),
            report.counter_ranking,
        )

    def _run_end_totals(
        self, elapsed_seconds: float, experiments: int, skipped: int,
        anomalies: int, counter_ranking: list,
    ) -> None:
        if self.journal is not None:
            # Close the final-progress gap: the modulus only fires every
            # N experiments, so the run's tail (and any run shorter than
            # N) would otherwise never snapshot.  Skip only when the
            # last periodic snapshot already landed on the final count.
            if (
                self.progress_every
                and experiments != self._last_snapshot_experiments
            ):
                self._write({
                    "t": "snapshot",
                    "time_seconds": elapsed_seconds,
                    "experiments": experiments,
                    "anomalies": anomalies,
                    "skipped": skipped,
                })
            self._flush_spans()
            self._write({
                "t": "run_end",
                "elapsed_seconds": elapsed_seconds,
                "experiments": experiments,
                "skipped": skipped,
                "anomalies": anomalies,
                "counter_ranking": list(counter_ranking),
            })

    # -- search events (live instrumentation) ------------------------------

    def experiment(self, event, state) -> None:
        """One measured experiment (a freshly appended TraceEvent)."""
        self._observe(event)
        self._experiments_seen += 1
        if (
            self.progress_every
            and self._experiments_seen % self.progress_every == 0
        ):
            self._progress_snapshot(event.time_seconds, state)

    def transition(
        self, time_seconds: float, action: str,
        temperature: float, delta: float, mutated: tuple = (),
    ) -> None:
        """One SA decision (improve/accept/reject/restart/reheat).

        ``mutated`` labels the dimensions the candidate mutation
        changed (schema v3) — the raw material of the observatory's
        per-dimension mutation-effectiveness diagnostics.
        """
        if self.journal is not None:
            self._write({
                "t": "transition",
                "time_seconds": time_seconds,
                "action": action,
                "temperature": temperature,
                "delta": delta,
                "mutated": list(mutated),
            })

    def skip(self, time_seconds: float, workload=None) -> None:
        """A candidate matched a known MFS; no experiment was run."""
        if self.coverage is not None:
            self.coverage.skip(workload)
        if self.journal is not None:
            record = {"t": "skip", "time_seconds": time_seconds}
            if workload is not None:
                record["workload"] = workload_to_list(workload)
            self._write(record)

    def anomaly(self, index: int, event_index: Optional[int], mfs) -> None:
        """A new MFS entered the anomaly set."""
        if self.coverage is not None:
            self.coverage.mark_mfs(mfs)
        if self.journal is not None:
            self._write(anomaly_record(index, event_index, mfs))

    def cache_event(self, phase: str, hit: bool) -> None:
        """One evaluation-cache lookup (wired as the cache's observer)."""
        if self.journal is not None:
            self._write({"t": "cache", "phase": phase, "hit": hit})

    # -- fan-out (executor / fleet) ----------------------------------------

    def fanout(self, stats) -> None:
        """Executor accounting of one completed fan-out."""
        if self.journal is not None:
            self._write({
                "t": "fanout",
                "tasks": stats.tasks,
                "workers": stats.workers,
                "wall_seconds": stats.wall_seconds,
                "busy_seconds": stats.busy_seconds,
                "fell_back_serial": stats.fell_back_serial,
                # Resilience accounting (extra fields; schema-v2 readers
                # and v1 validators both tolerate them).
                "retries": stats.retries,
                "timeouts": stats.timeouts,
                "injected_faults": stats.injected_faults,
                "backoff_seconds": stats.backoff_seconds,
                "quarantined_hosts": list(stats.quarantined_hosts),
                "redistributed_tasks": stats.redistributed_tasks,
            })

    def task_progress(self, done: int, total: int) -> None:
        """One fan-out task finished (live campaign progress)."""
        if self.progress_every:
            progress_logger.info("progress: task %d/%d complete", done, total)

    def heartbeat(self, worker: int, done: int, total: int) -> None:
        """Executor liveness for the live-telemetry plane (schema v7).

        The ``wall_time`` envelope field is host time, so canonical
        journal bytes drop the whole record
        (:func:`~repro.canary.corpus.canonical_journal_bytes`).  No-op
        unless :attr:`heartbeats` was requested.
        """
        if not self.heartbeats or self.journal is None:
            return
        self._write({
            "t": "heartbeat",
            "worker": worker,
            "done": done,
            "total": total,
            "wall_time": time.time(),
        })

    # -- resilience events (executor retry/quarantine decisions) -----------

    def retry(
        self, task: int, host: int, attempt: int, error: str,
        backoff_seconds: float,
    ) -> None:
        """A failed task attempt is being re-run."""
        if self.journal is not None:
            self._write({
                "t": "retry",
                "task": task,
                "host": host,
                "attempt": attempt,
                "error": error,
                "backoff_seconds": backoff_seconds,
            })

    def quarantine(
        self, host: int, failures: int, redistributed: int
    ) -> None:
        """A persistently failing virtual host left the rotation."""
        if self.journal is not None:
            self._write({
                "t": "quarantine",
                "host": host,
                "failures": failures,
                "redistributed": redistributed,
            })

    # -- post-hoc journaling (process-parallel paths) ----------------------

    def record_report(
        self,
        report,
        budget_hours: float,
        seed: Optional[int] = None,
    ) -> None:
        """Journal a finished report after the fact.

        Workers return plain reports (a recorder's file handle cannot
        be pickled across processes); the parent replays them into the
        journal so fleet and campaign runs are reconstructible too.
        The events already carry their ``new_anomaly_index`` re-tags,
        so anomaly records here need no ``event_index``.

        Accepts both Collie's ``SearchReport`` and the baselines'
        ``BaselineReport`` (which has no MFS bookkeeping — those fields
        journal as empty).
        """
        counter_mode = getattr(
            report, "counter_mode", getattr(report, "name", "?")
        )
        anomalies = getattr(report, "anomalies", [])
        skipped = getattr(report, "skipped_points", 0)
        self.run_start(
            report.subsystem_name, counter_mode,
            getattr(report, "use_mfs", False), budget_hours, seed,
        )
        self.ranking(getattr(report, "counter_ranking", []))
        for event in report.events:
            self._observe(event)
        for index, mfs in enumerate(anomalies):
            self.anomaly(index, None, mfs)
        for _ in range(skipped):
            self.skip(report.elapsed_seconds)
        self._run_end_totals(
            report.elapsed_seconds, report.experiments, skipped,
            len(anomalies), getattr(report, "counter_ranking", []),
        )

    # -- internals ---------------------------------------------------------

    def _observe(self, event) -> None:
        """Coverage visit and journal record of one experiment."""
        if self.coverage is not None:
            self.coverage.visit(event.workload)
        if self.journal is not None:
            self._write(experiment_record(event))

    def _progress_snapshot(self, time_seconds: float, state) -> None:
        progress_logger.info(
            "progress: %d experiments, %d anomalies, %d skipped, "
            "t=%.2f simulated hours",
            state.experiments, len(state.anomalies), state.skipped,
            time_seconds / 3600.0,
        )
        if self.journal is not None:
            self._write({
                "t": "snapshot",
                "time_seconds": time_seconds,
                "experiments": state.experiments,
                "anomalies": len(state.anomalies),
                "skipped": state.skipped,
            })
            self._last_snapshot_experiments = state.experiments

    def _flush_spans(self) -> None:
        """Journal any profiler events not yet written (chunked)."""
        if self.profiler is None or self.journal is None:
            return
        events = self.profiler.events()
        pending = events[self._spans_flushed:]
        self._spans_flushed = len(events)
        for record in spans_records(pending):
            self._write(record)

    def close(self) -> None:
        if self.journal is not None:
            self._flush_spans()
            self.journal.close()
