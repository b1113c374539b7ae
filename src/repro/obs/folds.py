"""Every journal metric, defined once, as an incremental fold.

The post-hoc readers feed these folds from a finished journal and
:class:`~repro.obs.aggregate.CampaignAggregator` feeds the same classes
from a :class:`~repro.obs.stream.JournalFollower`, so live and post-hoc
numbers agree by construction.  Folds keep running statistics, not
records, and metrics over several runs ignore record order: interleaved
chains and runs journaled one after another give the same numbers.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import operator
import sys
from array import array
from collections import deque
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from repro.analysis.serialize import (
    mfs_from_dict,
    workload_from_dict,
    workload_from_list,
)
from repro.core.annealing import TraceEvent
from repro.core.collie import SearchReport
from repro.core.mfs import MinimalFeatureSet
from repro.core.monitor import HEALTHY
from repro.hardware.workload import WorkloadDescriptor
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import HistogramSummary
from repro.obs.profiler import self_times
from repro.obs.schema import (
    ALL_COUNTERS,
    LATENCY_COMPONENTS,
    LATENCY_KEYS,
    RECORD_FIELDS,
    positional,
)

#: Actions that participate in acceptance-rate denominators.  restart,
#: reheat and exchange are schedule events, not Metropolis decisions.
DECISION_ACTIONS = ("improve", "accept", "reject")

#: Anomalous experiments kept for the dashboard's timeline tail.
TIMELINE_TAIL = 8

#: Order-of-magnitude buckets of the latency panel's p99 histogram.
LATENCY_BUCKETS = (
    ("<10us", 10.0),
    ("10-100us", 100.0),
    ("100us-1ms", 1000.0),
    ("1-10ms", 10000.0),
    (">=10ms", float("inf")),
)


class Fold:
    """One journal metric: ``step(record)`` reads the records whose ``t``
    is in :attr:`kinds` (``None``: all), ``result()`` is the metric."""

    kinds: Optional[frozenset] = None


#: What a fold's ``step`` raises on a line that is valid JSON but not a
#: valid record: a missing key, a wrong type or array length, an unknown
#: enum value, a non-object line.
MALFORMED_RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def malformed_record(where: str, record, error: Exception) -> ValueError:
    """The ``ValueError`` a journal read ends with at a malformed record
    (``where`` names the file and line)."""
    kind = record.get("t") if isinstance(record, dict) else None
    return ValueError(
        f"{where}: malformed {kind!r} record: "
        f"{type(error).__name__}: {error}"
    )


# -- field accessors: the one place a record's version picks its shape -------

def record_workload(
    record: dict, field: str = "workload"
) -> WorkloadDescriptor:
    """The workload in ``record[field]``: ``workload`` of an experiment
    or skip, ``victim`` of an isolation preamble."""
    if positional(record):
        return workload_from_list(record[field])
    return workload_from_dict(record[field])


class RecordParse:
    """The parsed workload and MFS of the record being stepped: folds
    of one pass that share a ``RecordParse`` parse each record once."""

    def __init__(self) -> None:
        self._workload: tuple = (None, None)  #: (record, workload)
        self._mfs: tuple = (None, None)  #: (record, mfs)

    def workload(self, record: dict) -> WorkloadDescriptor:
        """:func:`record_workload` of an experiment or skip."""
        last, workload = self._workload
        if last is not record:
            workload = record_workload(record)
            self._workload = (record, workload)
        return workload

    def mfs(self, record: dict) -> MinimalFeatureSet:
        """An ``anomaly`` record's MFS."""
        last, mfs = self._mfs
        if last is not record:
            mfs = mfs_from_dict(record["mfs"])
            self._mfs = (record, mfs)
        return mfs


_COUNTER_INDEX = {name: index for index, name in enumerate(ALL_COUNTERS)}


def _counter_values(record: dict) -> list:
    """A v8 record's counter readings: all of them, or none (``[]``, the
    event kept no snapshot)."""
    values = record["counters"]
    if values and len(values) != len(ALL_COUNTERS):
        raise ValueError(
            f"counters holds {len(values)} values, expected 0 or "
            f"{len(ALL_COUNTERS)}"
        )
    return values


def record_counter(record: dict, name: str):
    """One counter's reading in an experiment record (None: absent)."""
    if not positional(record):
        return record["counters"].get(name)
    values = _counter_values(record)
    index = _COUNTER_INDEX.get(name)
    return None if index is None or not values else values[index]


def record_counters(record: dict) -> dict:
    """An experiment record's counter snapshot, as a TraceEvent holds it."""
    if not positional(record):
        return dict(record["counters"])
    return dict(zip(ALL_COUNTERS, _counter_values(record)))


_P50, _P90, _P99, _INFLATION, _TAGS = map(
    LATENCY_KEYS.index, ("p50_us", "p90_us", "p99_us", "inflation", "tags")
)
_LATENCY_FIELDS = operator.itemgetter(*LATENCY_KEYS)


def record_latency(record: dict) -> Optional[Sequence]:
    """The latency summary a record carries, in ``LATENCY_KEYS`` order:
    a v4–v7 ``latency`` record's fields or a v8 experiment's ``latency``
    array (its ``components`` an object or an array, as written); None
    when the record carries none."""
    if record.get("t") == "latency":
        return _LATENCY_FIELDS(record)
    values = record.get("latency")
    if values is not None and len(values) != len(LATENCY_KEYS):
        raise ValueError(
            f"latency holds {len(values)} values, expected "
            f"{len(LATENCY_KEYS)}"
        )
    return values


def latency_summary(values: Sequence) -> dict:
    """A :func:`record_latency` summary as a TraceEvent holds it."""
    p50, p90, p99, mean, baseline, inflation, components, tags = values
    if not isinstance(components, dict):
        components = zip(LATENCY_COMPONENTS, components, strict=True)
    return {
        "p50_us": p50,
        "p90_us": p90,
        "p99_us": p99,
        "mean_us": mean,
        "baseline_us": baseline,
        "inflation": inflation,
        "components": dict(components),
        "tags": list(tags),
    }


def parse_record(record: dict) -> None:
    """Parse everything a reader parses of ``record`` — its workload,
    counters, latency summary or MFS — raising what that reader would
    (one of :data:`MALFORMED_RECORD_ERRORS`)."""
    kind = record.get("t")
    if kind == "experiment":
        record_workload(record)
        record_counters(record)
    elif kind == "skip" and "workload" in record:
        record_workload(record)
    elif kind == "isolation":
        record_workload(record, "victim")
    elif kind == "anomaly":
        mfs_from_dict(record["mfs"])
    if kind in ("experiment", "latency"):
        latency = record_latency(record)
        if latency is not None:
            latency_summary(latency)


def dispatcher(*folds: Fold) -> Callable[[dict], None]:
    """``step(record)`` feeding a record to the folds that read its type."""
    every = [fold.step for fold in folds if fold.kinds is None]
    by_kind: dict[str, list] = {}
    for fold in folds:
        for kind in fold.kinds or ():
            by_kind.setdefault(kind, []).append(fold.step)

    def step(record: dict) -> None:
        for fold_step in every:
            fold_step(record)
        for fold_step in by_kind.get(record.get("t"), ()):
            fold_step(record)

    return step


def run_folds(records, *folds: Fold) -> tuple:
    """Feed ``records`` through ``folds`` in one pass; returns the folds."""
    step = dispatcher(*folds)
    for record in records:
        step(record)
    return folds


class PerRun(Fold):
    """Base of the folds that keep one state per run: records split by
    ``chain`` stamp (first-appearance order), then on each chain's
    ``run_start``; a run's state is ``start_run(run_start)``, then
    ``step_run(state, kind, record)`` per record.  Records before a
    stream's first ``run_start`` belong to no run."""

    def __init__(self) -> None:
        self._chains: dict = {}

    def step(self, record: dict) -> None:
        kind = record.get("t")
        runs = self._chains.setdefault(record.get("chain"), [])
        if kind == "run_start":
            runs.append(self.start_run(record))
        elif runs:
            runs[-1] = self.step_run(runs[-1], kind, record)

    def runs(self) -> list:
        """Every run's state, in ``run_records`` order."""
        return [state for runs in self._chains.values() for state in runs]


class RecordCounts(PerRun):
    """Records per type, and whether each run reached its ``run_end``
    before its chain's next ``run_start`` (else it crashed)."""

    def __init__(self) -> None:
        super().__init__()
        self.by_type: dict[str, int] = {}

    def step(self, record: dict) -> None:
        kind = record.get("t", "?")
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        super().step(record)

    def start_run(self, record: dict) -> bool:
        return False

    def step_run(self, complete: bool, kind: str, record: dict) -> bool:
        return complete or kind == "run_end"

    @property
    def records(self) -> int:
        return sum(self.by_type.values())

    @property
    def complete_runs(self) -> int:
        return sum(self.runs())

    def count(self, kind: str) -> int:
        return self.by_type.get(kind, 0)

    def unknown_kinds(self) -> dict:
        """Kind → count of records the current schema does not know."""
        return {
            kind: count for kind, count in sorted(self.by_type.items())
            if kind not in RECORD_FIELDS
        }

    def unknown_notes(self) -> list[str]:
        """One log line per unknown record kind (empty when none)."""
        return [
            f"unknown record kind skipped: {kind} (n={count})"
            for kind, count in self.unknown_kinds().items()
        ]

    def result(self) -> dict:
        """The ``journal_summary`` shape overview."""
        runs = self.count("run_start")
        return {
            "records": self.records,
            "runs": runs,
            "complete_runs": self.complete_runs,
            "crashed_runs": runs - self.complete_runs,
            "experiments": self.count("experiment"),
            "anomalies": self.count("anomaly"),
            "transitions": self.count("transition"),
            "skips": self.count("skip"),
            "cache_events": self.count("cache"),
            "retries": self.count("retry"),
            "quarantines": self.count("quarantine"),
            "heartbeats": self.count("heartbeat"),
            "by_type": dict(sorted(self.by_type.items())),
        }


class Coverage(PerRun):
    """One workload-space :class:`CoverageTracker` per run (``parse``:
    shared with the pass's other folds)."""

    def __init__(self, parse: Optional[RecordParse] = None) -> None:
        super().__init__()
        self.parse = parse if parse is not None else RecordParse()

    def start_run(self, record: dict) -> CoverageTracker:
        return CoverageTracker.for_subsystem(record["subsystem"])

    def step_run(self, tracker, kind: str, record: dict) -> CoverageTracker:
        if kind == "experiment":
            tracker.visit(self.parse.workload(record))
        elif kind == "skip":
            tracker.skip(
                self.parse.workload(record) if "workload" in record else None
            )
        elif kind == "anomaly":
            tracker.mark_mfs(self.parse.mfs(record))
        return tracker

    def result(self) -> Optional[float]:
        """Mean over runs of each run's touched fraction (None: no runs)."""
        trackers = self.runs()
        if not trackers:
            return None
        fractions = [tracker.touched_fraction() for tracker in trackers]
        return math.fsum(fractions) / len(fractions)


class LatencyColumns:
    """The p50, p90, p99 and inflation of a run's latency summaries, one
    float each per summary (the per-run latency line of ``report`` and
    ``stats``)."""

    INDICES = (_P50, _P90, _P99, _INFLATION)

    def __init__(self) -> None:
        self.columns = tuple(array("d") for _ in self.INDICES)

    def __len__(self) -> int:
        return len(self.columns[0])

    def append(self, latency: Sequence) -> None:
        for column, index in zip(self.columns, self.INDICES):
            column.append(float(latency[index]))

    def replace_last(self, latency: Sequence) -> None:
        for column, index in zip(self.columns, self.INDICES):
            column[-1] = float(latency[index])


class Traffic(PerRun):
    """Per run: ``(tx Gbps of each experiment, LatencyColumns)``."""

    def start_run(self, record: dict) -> tuple[list, LatencyColumns]:
        return [], LatencyColumns()

    def step_run(self, run: tuple, kind: str, record: dict) -> tuple:
        if kind == "experiment":
            tx = record_counter(record, "tx_bytes_per_sec")
            run[0].append(float(tx if tx is not None else 0.0) * 8.0 / 1e9)
        if kind in ("experiment", "latency"):
            latency = record_latency(record)
            if latency is not None:
                run[1].append(latency)
        return run


class CounterRow(NamedTuple):
    """One experiment's reading of the counter ``repro report --counter``
    follows: the :class:`~repro.core.annealing.TraceEvent` fields
    :func:`~repro.analysis.figures.counter_trace` and the trajectory CSV
    read, with the reading in ``counter_value``."""

    time_seconds: float
    counter: str
    counter_value: float
    kind: str
    symptom: str
    new_anomaly_index: Optional[int]
    counters = None  #: no snapshot: ``counter_value`` is the reading.


class CounterColumns:
    """A run's readings of one counter, a column per field (a
    :class:`CounterRow` each would hold several objects per experiment);
    ``positions`` are the observing experiments' places in the run."""

    def __init__(self, counter: str) -> None:
        self.counter = counter
        self.positions = array("l")
        self.times = array("d")
        self.values = array("d")
        self.kinds: list[str] = []
        self.symptoms: list[str] = []
        self.anomaly_indices: list[Optional[int]] = []
        self._columns = (
            self.positions, self.times, self.values, self.kinds,
            self.symptoms, self.anomaly_indices,
        )

    def append(self, position: int, record: dict) -> None:
        """``record``'s reading, if it observed the counter."""
        counter = self.counter
        value = record_counter(record, counter)
        if value is None:
            if record["counter"] != counter:
                return
            value = record["counter_value"]
        row = (
            position, record["time_seconds"], float(value),
            sys.intern(record["kind"]), sys.intern(record["symptom"]),
            record.get("new_anomaly_index"),
        )
        for column, field in zip(self._columns, row):
            column.append(field)

    def rows(self, retags: dict) -> Iterator[CounterRow]:
        """The readings in order, ``retags`` (position → anomaly index)
        applied."""
        for position, seconds, value, kind, symptom, index in zip(
            *self._columns
        ):
            yield CounterRow(
                seconds, self.counter, value, kind, symptom,
                retags.get(position, index),
            )


class RunSummary:
    """One run, folded record by record: the
    :class:`~repro.core.collie.SearchReport` totals, its anomalies and
    each tag's first anomalous hit, plus what the caller asked to keep
    per experiment — the events themselves (``events``), the latency
    percentiles (``latency``), one counter's readings (``counter``).

    ``run_end`` totals are authoritative when present; a crashed run
    (no ``run_end``) falls back to the per-event records: experiments
    and events are 1:1 by construction, skips have their own records,
    and elapsed time is the latest experiment's finish time.
    """

    def __init__(
        self, start: dict, events: bool, latency: bool,
        counter: Optional[str], parse: RecordParse,
    ) -> None:
        self.parse = parse
        self.seed = start.get("seed")
        self.subsystem = start.get("subsystem", "?")
        self.counter_mode = start.get("counter_mode", "diag")
        self.use_mfs = start.get("use_mfs", True)
        #: ``(experiments, skipped, elapsed, ranking)`` of the run_end.
        self.end: Optional[tuple] = None
        self.experiments = 0  #: experiment records.
        self.skips = 0
        self.latest = 0.0  #: max ``time_seconds`` over the experiments.
        self.ranking: Optional[list] = None
        #: ``(index, event_index, mfs)`` per anomaly record, file order.
        self.anomalies: list[tuple] = []
        #: Ground-truth tag → seconds of its first anomalous experiment.
        self.first_hits: dict = {}
        self.events: Optional[list[TraceEvent]] = [] if events else None
        #: Each experiment's latency percentiles and inflation.
        self.latency = LatencyColumns() if latency else None
        self._latency_attached = False  #: the last experiment has one.
        #: The readings of ``counter`` (None: not kept).
        self.readings = (
            CounterColumns(counter) if counter is not None else None
        )

    def step(self, kind: str, record: dict) -> None:
        if kind == "experiment":
            self._experiment(record)
        elif kind == "latency" and self.experiments:
            self._latency_record(record)
        elif kind == "anomaly":
            self.anomalies.append((
                record["index"], record.get("event_index"),
                self.parse.mfs(record),
            ))
        elif kind == "skip":
            self.skips += 1
        elif kind == "ranking":
            self.ranking = list(record["counters"])
        elif kind == "run_end":
            self.end = (
                record["experiments"], record["skipped"],
                record["elapsed_seconds"], list(record["counter_ranking"]),
            )

    def _experiment(self, record: dict) -> None:
        # Parsed even when not kept: a workload the reader cannot build
        # ends the read at its line.
        workload = self.parse.workload(record)
        latency = record_latency(record)  # v8 experiments carry theirs
        seconds = record["time_seconds"]
        if not self.experiments or seconds > self.latest:
            self.latest = seconds
        self.experiments += 1
        self._latency_attached = False
        symptom = record["symptom"]
        if symptom != HEALTHY:
            for tag in record["tags"]:
                self.first_hits.setdefault(tag, seconds)
        if self.events is not None:
            self.events.append(TraceEvent(
                time_seconds=seconds,
                counter=record["counter"],
                counter_value=record["counter_value"],
                symptom=symptom,
                tags=tuple(record["tags"]),
                workload=workload,
                kind=record["kind"],
                new_anomaly_index=record.get("new_anomaly_index"),
                counters=record_counters(record),
                latency=None if latency is None else latency_summary(latency),
                interference=record.get("interference"),
            ))
        if self.readings is not None:
            self.readings.append(self.experiments - 1, record)
        if latency is not None:
            self._latency_columns(latency)

    def _latency_record(self, record: dict) -> None:
        """A v4–v7 ``latency`` record: the writer emits it right after
        the experiment it describes; a repeat replaces it."""
        latency = record_latency(record)
        if self.events is not None:
            self.events[-1] = dataclasses.replace(
                self.events[-1], latency=latency_summary(latency)
            )
        self._latency_columns(latency)

    def _latency_columns(self, latency: Sequence) -> None:
        if self.latency is not None:
            if self._latency_attached:
                self.latency.replace_last(latency)
            else:
                self.latency.append(latency)
        self._latency_attached = True

    def _by_index(self) -> list[tuple]:
        """The anomalies in index order (ties in file order)."""
        return sorted(self.anomalies, key=lambda anomaly: anomaly[0])

    def _retags(self) -> dict:
        """Experiment position → anomaly index: the retroactive re-tag.
        Live journals emit the experiment record before the anomaly is
        extracted, so the triggering event's position rides on the
        anomaly record instead (a later index wins a shared position)."""
        retags = {}
        for index, position, _ in self._by_index():
            if position is not None and 0 <= position < self.experiments:
                retags[position] = index
        return retags

    def report(self) -> SearchReport:
        """The run as a SearchReport (``events`` empty unless kept)."""
        events = self.events
        if events is None:
            events = []
        else:
            for position, index in self._retags().items():
                events[position] = dataclasses.replace(
                    events[position], new_anomaly_index=index
                )
        if self.end is not None:
            experiments, skipped, elapsed, ranking = self.end
        else:
            experiments, skipped = self.experiments, self.skips
            elapsed, ranking = self.latest, self.ranking or []
        return SearchReport(
            subsystem_name=self.subsystem,
            counter_mode=self.counter_mode,
            use_mfs=self.use_mfs,
            anomalies=[mfs for _, _, mfs in self._by_index()],
            events=events,
            experiments=experiments,
            skipped_points=skipped,
            elapsed_seconds=elapsed,
            counter_ranking=ranking,
        )

    def counter_rows(self) -> Iterator[CounterRow]:
        """The experiments that observed the kept counter, in order, with
        the re-tag applied."""
        return self.readings.rows(self._retags())


class RunReports(PerRun):
    """One :class:`RunSummary` per run: the fold ``repro report`` prints
    and :func:`~repro.obs.journal.reports_from_records` rebuilds
    SearchReports from (``events=True``)."""

    def __init__(
        self, events: bool = False, latency: bool = False,
        counter: Optional[str] = None, parse: Optional[RecordParse] = None,
    ) -> None:
        super().__init__()
        parse = parse if parse is not None else RecordParse()
        self._options = (events, latency, counter, parse)

    def start_run(self, record: dict) -> RunSummary:
        return RunSummary(record, *self._options)

    def step_run(self, run: RunSummary, kind: str, record: dict) -> RunSummary:
        run.step(kind, record)
        return run

    def reports(self) -> list[SearchReport]:
        return [run.report() for run in self.runs()]


class FirstAnomaly(Fold):
    """Time to first anomaly (TTFA), overall, per symptom and per chain:
    the earliest ``time_seconds`` of an experiment whose symptom is not
    healthy.  A run's simulated clock only moves forward, so this is the
    minimum over runs of each run's first anomaly, however the runs'
    records interleave."""

    kinds = frozenset({"experiment"})

    def __init__(self) -> None:
        self.by_chain: dict = {}  #: chain → TTFA over its runs.
        self.by_symptom: dict[str, float] = {}

    def step(self, record: dict) -> None:
        symptom = record.get("symptom", HEALTHY)
        if symptom == HEALTHY:
            return
        seconds = float(record["time_seconds"])
        for earliest, key in (
            (self.by_chain, record.get("chain")), (self.by_symptom, symptom)
        ):
            earliest[key] = min(seconds, earliest.get(key, seconds))

    def result(self) -> Optional[float]:
        """Simulated seconds to the first anomaly (None: all healthy)."""
        return min(self.by_chain.values(), default=None)

    def symptoms(self) -> dict:
        """Symptom → TTFA of that symptom, earliest first."""
        ranked = sorted(
            self.by_symptom.items(), key=lambda item: (item[1], item[0])
        )
        return dict(ranked)


@dataclasses.dataclass
class EpochStats:
    """One temperature epoch: consecutive transitions at one temperature."""

    temperature: float
    improve: int = 0
    accept: int = 0
    reject: int = 0
    restart: int = 0
    reheat: int = 0
    exchange: int = 0  #: replica swaps adopted (tempering runs only).

    @property
    def decisions(self) -> int:
        return self.improve + self.accept + self.reject

    @property
    def acceptance_rate(self) -> Optional[float]:
        if self.decisions == 0:
            return None
        return (self.improve + self.accept) / self.decisions


@dataclasses.dataclass
class DimensionStats:
    """Mutation outcomes attributed to one mutated dimension."""

    dimension: str
    mutations: int = 0
    improvements: int = 0
    accepts: int = 0
    rejects: int = 0

    @property
    def effectiveness(self) -> Optional[float]:
        if self.mutations == 0:
            return None
        return self.improvements / self.mutations


def _ranked(stats) -> list[DimensionStats]:
    return sorted(
        stats,
        key=lambda entry: (-(entry.effectiveness or 0.0), entry.dimension),
    )


@dataclasses.dataclass
class ChainDiagnostics:
    """One population chain's running SA tallies (see :class:`Annealing`)."""

    chain: Optional[int]  #: None for unstamped (pre-population) journals.
    t0: Optional[float] = None  #: hottest temperature = tempering rung.
    decisions: int = 0
    accepted: int = 0
    exchanges: int = 0  #: replica swaps this chain adopted (tempering).
    by_dimension: dict = dataclasses.field(default_factory=dict)
    ttfa: Optional[float] = None

    @property
    def acceptance(self) -> Optional[float]:
        return self.accepted / self.decisions if self.decisions else None

    @property
    def dimensions(self) -> list[DimensionStats]:
        """Per-dimension mutation outcomes, most effective first."""
        return _ranked(self.by_dimension.values())

    @property
    def best_dimension(self) -> Optional[str]:
        best = self.dimensions
        return best[0].dimension if best else None


class Annealing(Fold):
    """Metropolis acceptance and mutation effectiveness, per chain and
    over all chains."""

    def __init__(self) -> None:
        self.chains: dict = {}
        self._dimensions: dict[str, DimensionStats] = {}  #: all chains.

    def step(self, record: dict) -> None:
        chain = record.get("chain")
        tally = self.chains.get(chain)
        if tally is None:
            tally = self.chains[chain] = ChainDiagnostics(chain)
        if record.get("t") != "transition":
            return
        action = record["action"]
        temperature = float(record["temperature"])
        if tally.t0 is None or temperature > tally.t0:
            tally.t0 = temperature
        tally.exchanges += action == "exchange"
        if action not in DECISION_ACTIONS:
            return
        tally.decisions += 1
        tally.accepted += action != "reject"
        for dimension in record.get("mutated", ()):
            for stats in (tally.by_dimension, self._dimensions):
                entry = stats.setdefault(dimension, DimensionStats(dimension))
                entry.mutations += 1
                entry.improvements += action == "improve"
                entry.accepts += action == "accept"
                entry.rejects += action == "reject"

    def result(self) -> Optional[float]:
        """Overall acceptance rate (None without decisions)."""
        decided = sum(tally.decisions for tally in self.chains.values())
        accepted = sum(tally.accepted for tally in self.chains.values())
        return accepted / decided if decided else None

    def dimensions(self) -> list[DimensionStats]:
        """Per-dimension mutation outcomes over every chain, best first."""
        return _ranked(self._dimensions.values())

    def diagnostics(self, ttfa: FirstAnomaly) -> list[ChainDiagnostics]:
        """Each chain's tallies, with its TTFA from ``ttfa``."""
        return [
            dataclasses.replace(tally, ttfa=ttfa.by_chain.get(chain))
            for chain, tally in self.chains.items()
        ]


class TemperatureEpochs(Fold):
    """Temperature epochs in journal order (the SA schedule as run)."""

    kinds = frozenset({"transition"})

    def __init__(self) -> None:
        self.epochs: list[EpochStats] = []

    def step(self, record: dict) -> None:
        temperature = float(record["temperature"])
        if not self.epochs or self.epochs[-1].temperature != temperature:
            self.epochs.append(EpochStats(temperature=temperature))
        action = record["action"]
        setattr(self.epochs[-1], action, getattr(self.epochs[-1], action) + 1)

    def result(self) -> list[EpochStats]:
        return self.epochs


class Latency(Fold):
    """Per-WR p99 latency over the latency summaries: count, worst
    inflation, and the exact median from two heaps holding the lower and
    upper half of the p99s (an even count averages the two middle
    values)."""

    kinds = frozenset({"experiment", "latency"})

    def __init__(self) -> None:
        self.count = 0
        self._low: list[float] = []  #: lower half, negated (max-heap).
        self._high: list[float] = []  #: upper half (min-heap).
        self.inflation_max: Optional[float] = None
        self.quirky = 0  #: records with a fired latency quirk.
        self.buckets = [0] * len(LATENCY_BUCKETS)
        #: Mergeable histogram of the p99s (the live p99 of p99s).
        self.histogram = HistogramSummary()

    def step(self, record: dict) -> None:
        latency = record_latency(record)
        if latency is None:
            return
        p99 = float(latency[_P99])
        self.count += 1
        heapq.heappush(self._low, -heapq.heappushpop(self._high, p99))
        if len(self._low) > len(self._high) + 1:
            heapq.heappush(self._high, -heapq.heappop(self._low))
        inflation = float(latency[_INFLATION])
        if self.inflation_max is None or inflation > self.inflation_max:
            self.inflation_max = inflation
        self.quirky += bool(latency[_TAGS])
        for index, (_, upper) in enumerate(LATENCY_BUCKETS):
            if p99 < upper:
                self.buckets[index] += 1
                break
        self.histogram.observe(p99)

    def median(self) -> Optional[float]:
        if not self.count:
            return None
        if len(self._low) > len(self._high):
            return -self._low[0]
        return (-self._low[0] + self._high[0]) / 2.0

    def result(self) -> dict:
        return {
            "latency_records": self.count,
            "latency_p99_us_median": self.median(),
            "latency_inflation_max": self.inflation_max,
        }

    def render(self) -> Optional[str]:
        """The ``repro coverage`` p99 panel (None without latency records)."""
        if not self.count:
            return None
        peak = max(self.buckets)
        lines = [f"per-WR p99 latency ({self.count} latency records)"]
        for (label, _), count in zip(LATENCY_BUCKETS, self.buckets):
            if count:
                bar = "#" * max(1, round(count * 40 / peak))
                lines.append(f"  {label:>10} {count:>6} {bar}")
        lines.append(
            f"  median p99 {self.median():.1f} us, worst inflation "
            f"{self.inflation_max:.2f}x, {self.quirky} experiment(s) with a "
            f"fired latency quirk"
        )
        return "\n".join(lines)


class Isolation(Fold):
    """Isolation preambles and the worst (minimum, finite) victim
    interference over the co-run experiments."""

    kinds = frozenset({"isolation", "experiment"})

    def __init__(self) -> None:
        self.preambles: list[dict] = []  #: the ``isolation`` records.
        self.experiments = 0
        #: ``(interference, time_seconds)`` of the worst co-run experiment.
        self.worst: Optional[tuple] = None

    def step(self, record: dict) -> None:
        if record.get("t") == "isolation":
            self.preambles.append(record)
            return
        value = record.get("interference")
        if value is None or not math.isfinite(float(value)):
            return
        self.experiments += 1
        point = (float(value), float(record["time_seconds"]))
        if self.worst is None or point < self.worst:
            self.worst = point

    def result(self) -> dict:
        return {
            "isolation_experiments": self.experiments,
            "interference_min": self.worst[0] if self.worst else None,
        }


class MFSShapes(Fold):
    """Multisets of MFS shapes (symptom, interval and membership counts,
    mixed-pattern need) and of MFS condition counts."""

    kinds = frozenset({"anomaly"})

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.sizes: list[int] = []

    def step(self, record: dict) -> None:
        mfs = record.get("mfs", {})
        intervals = len(mfs.get("intervals", ()))
        memberships = len(mfs.get("memberships", ()))
        mix = int(bool(mfs.get("requires_mix")))
        key = f"{mfs.get('symptom', '?')}|i{intervals}|m{memberships}|x{mix}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self.sizes.append(intervals + memberships + mix)

    def result(self) -> dict:
        return dict(sorted(self.counts.items()))


class Elapsed(Fold):
    """Simulated seconds summed over the ``run_end`` records."""

    kinds = frozenset({"run_end"})

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def step(self, record: dict) -> None:
        self.seconds.append(float(record.get("elapsed_seconds", 0.0)))

    def result(self) -> float:
        return math.fsum(self.seconds)


class Spans(Fold):
    """Profiler span events; the result is self seconds per span path."""

    kinds = frozenset({"spans"})

    def __init__(self) -> None:
        self.events: list[tuple[str, float, float]] = []

    def step(self, record: dict) -> None:
        self.events.extend(
            (str(path), float(start), float(duration))
            for path, start, duration in record["events"]
        )

    def result(self) -> dict:
        return dict(sorted(self_times(self.events).items()))


class Telemetry(Fold):
    """Live-only state: each worker slot's latest heartbeat, cache hits,
    and the :data:`TIMELINE_TAIL` latest anomalous experiments."""

    kinds = frozenset({"heartbeat", "cache", "experiment"})

    def __init__(self) -> None:
        #: worker slot → ``(done, total, wall_time)``.
        self.workers: dict[int, tuple] = {}
        self.cache_hits = 0
        self.cache_lookups = 0
        self.timeline: deque = deque(maxlen=TIMELINE_TAIL)

    def step(self, record: dict) -> None:
        kind = record.get("t")
        if kind == "heartbeat":
            self.workers[int(record["worker"])] = (
                int(record["done"]),
                int(record["total"]),
                float(record["wall_time"]),
            )
        elif kind == "cache":
            self.cache_lookups += 1
            self.cache_hits += bool(record.get("hit"))
        elif record.get("symptom", HEALTHY) != HEALTHY:
            self.timeline.append({
                "chain": record.get("chain"),
                "time_seconds": record["time_seconds"],
                "symptom": record["symptom"],
                "counter": record.get("counter", "?"),
                "counter_value": record.get("counter_value", 0.0),
            })

    def result(self) -> list:
        return list(self.timeline)


class JournalMetrics:
    """The folds behind :func:`~repro.analysis.journaldiff.journal_metrics`
    (coverage from the records, not ``coverage`` snapshots, so a
    self-diff is exactly zero)."""

    def __init__(self, parse: Optional[RecordParse] = None) -> None:
        self.folds = (
            RecordCounts(), FirstAnomaly(), Coverage(parse), Elapsed(),
            Annealing(), Spans(), MFSShapes(), Latency(), Isolation(),
        )
        (self.counts, self.ttfa, self.coverage, self.elapsed, self.annealing,
         self.spans, self.shapes, self.latency, self.isolation) = self.folds

    def result(self) -> dict:
        return {
            "anomalies": self.counts.count("anomaly"),
            "time_to_first_anomaly_seconds": self.ttfa.result(),
            "coverage_fraction": self.coverage.result(),
            "experiments": self.counts.count("experiment"),
            "skips": self.counts.count("skip"),
            "elapsed_seconds": self.elapsed.result(),
            "acceptance_rate": self.annealing.result(),
            "span_self_seconds": self.spans.result(),
            "mfs_shape_counts": self.shapes.result(),
            "mfs_condition_sizes": sorted(self.shapes.sizes),
            **self.latency.result(),
            **self.isolation.result(),
        }
