"""Versioned schema of the run-journal records.

Every journal line is one JSON object carrying ``{"v": SCHEMA_VERSION,
"t": <record type>}`` plus the type's payload fields.  The validator is
deliberately hand-rolled (no jsonschema dependency): a field spec maps
field name → accepted Python types, which covers everything the journal
emits and keeps CI's validation step dependency-free.

Record types:

``run_start``
    One per search run: identity (subsystem, counter mode, MFS usage)
    plus budget and seed — everything needed to re-run the search.
``ranking``
    The §7.2 counter ranking: ordered counter list and the dispersion
    (std/mean over the probe set) each counter scored.
``experiment``
    One testbed experiment — the journal twin of a
    :class:`~repro.core.annealing.TraceEvent`, with the workload and
    full counter snapshot inlined (from v8 as positional arrays, plus
    the per-WR latency summary as a third array when the latency signal
    is on).
``anomaly``
    A new MFS entered the anomaly set.  ``event_index`` points at the
    triggering experiment record (its 0-based position within the run),
    mirroring the in-memory retroactive re-tag.
``transition``
    One SA decision: ``improve`` / ``accept`` / ``reject`` /
    ``restart`` / ``reheat``, with temperature and energy delta.
``skip``
    A candidate point matched a known MFS and was skipped unmeasured.
``cache``
    One evaluation-cache lookup (phase + hit/miss).
``snapshot``
    Periodic progress: totals so far (up to v8 plus a dump of the
    writer's live metrics registry).
``run_end``
    Authoritative totals of the finished run (the reconstruction
    prefers these over recomputing; their absence means a crashed run,
    which still reconstructs from the experiment records alone).  Up to
    v8 it also carries the registry dump as ``metrics``.
``fanout``
    Executor accounting of one multi-seed / fleet fan-out.
``retry``
    One re-run of a failed task attempt: which task, which virtual
    host the attempt was dispatched on, the attempt number, the
    failure kind (``crash``/``hang``/``timeout``/``transient``/...)
    and the deterministic backoff charged before the retry.
``quarantine``
    A persistently failing virtual host was taken out of rotation:
    its accumulated failure count and how many of its pending tasks
    were redistributed to healthy hosts.
``coverage``
    v3–v8 only.  Periodic workload-space coverage: per-dimension
    occupancy over the 4-D space plus totals (experiments, MFS skips,
    unique points).  No reader ever used it: the ``Coverage`` fold
    recomputes the same maps from the experiment, skip and anomaly
    records.
``spans``
    A chunk of profiler span events, each ``[path, start, duration]``
    in profiler-relative wall-clock seconds.
``latency``
    v4–v7 only.  Per-WR latency percentiles of one experiment (the
    summary of the measurement's analytic
    :class:`~repro.hardware.model.LatencyProfile`): p50/p90/p99/mean in
    microseconds, the deterministic ``baseline_us`` floor, the
    p99-over-baseline ``inflation`` ratio the tail-latency trigger
    compares, and the named per-component breakdown.  Written
    immediately after its ``experiment`` record; v8 carries the same
    summary inside the ``experiment`` record instead.
``isolation``
    One per isolation (adversarial-neighbor) run, right after
    ``run_start``: the pinned victim workload, its bandwidth share, and
    the deterministic alone-floor (solo throughput and p99) the
    victim-degradation verdicts compare against.  Every ``experiment``
    of such a run then carries the optional ``interference`` field
    (victim shared throughput over fair share).
``heartbeat``
    Executor liveness: one per completed fan-out task when live
    telemetry is on (``--export-metrics``), carrying the virtual worker
    slot the task ran on, the done/total progress, and — uniquely among
    journal records — a ``wall_time`` envelope field (``time.time()``).
    Wall clock is nondeterministic, so heartbeats are exactly the
    records the determinism contract excludes: every comparison surface
    (report reconstruction, ``journal diff``, the canary, resume)
    ignores them, and a telemetered journal with its heartbeat lines
    stripped is byte-identical to a bare run's journal.

Version 2 added the ``retry``/``quarantine`` types; version 3 added the
observatory's ``coverage``/``spans`` types plus the optional
``transition.mutated`` and ``skip.workload`` detail fields; version 4
added the ``latency`` type; version 5 added population-search support:
an optional integer ``chain`` field on every record (which SA chain of
a population run wrote it — absent on single-trajectory journals, so
those stay byte-compatible) and the ``exchange`` transition action
(parallel tempering adopted a replica from an adjacent ladder rung);
version 6 added the isolation domain: the ``isolation`` record type
and the optional ``experiment.interference`` field (both only written
by co-run searches, so solo journals stay byte-compatible with v5);
version 7 added the live-telemetry ``heartbeat`` record (only written
when an exporter/dashboard asks for liveness, so untelemetered
journals stay byte-compatible with v6).

Version 8 writes one record per experiment, and about half the bytes.
Every workload a record carries (``experiment.workload``,
``skip.workload``, ``isolation.victim``) is a positional array in
:data:`WORKLOAD_FIELDS` order, ``experiment.counters`` one in
:data:`ALL_COUNTERS` order (or ``[]``: the event kept no snapshot, as
a BO+MFS probe, which v1–v7 wrote ``{}``), and the ``latency`` record
is gone: its summary rides on the experiment as the optional
``latency`` array, in :data:`LATENCY_KEYS` order with the components
in :data:`LATENCY_COMPONENTS` order.  These orders are constants of
this module (the first two imported from the code that owns them),
not of a run, so any v8 record reads on its own (a follower resuming
mid-file, a fold that keeps no run state).  The per-record
``v`` says which shape a record holds (:func:`positional`); MFS objects
and every other field keep their v7 shape.

Version 9 records events only, in v8's positional shape.  ``run_end``
and ``snapshot`` no longer carry a ``metrics`` dump, and ``coverage``
records are no longer written: every number they held is a fold of
the event records (:mod:`repro.obs.folds`), and no reader read them.
The dump also leaked host time (the ``*_wall`` timers and
``executor.*`` seconds) into records that are otherwise a pure
function of the search, and, because chains shared the writer's
registry, a population chain's ``run_end`` counted every chain.  A
v9 journal reads exactly as the v8 journal of the same search does.

Older journals remain valid (the validator accepts every version in
``SUPPORTED_VERSIONS``; optional fields are only type-checked when
present).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.serialize import WORKLOAD_FIELDS
from repro.hardware.counters import ALL_COUNTERS

SCHEMA_VERSION = 9

#: Versions the validator (and readers) accept.
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8, 9)

#: Versions whose records carry positional arrays.
POSITIONAL_VERSIONS = (8, 9)

NUMBER = (int, float)
MAYBE_INT = (int, type(None))
MAYBE_DICT = (dict, type(None))


def positional(record: dict) -> bool:
    """Whether ``record`` holds the positional (v8 and later) shape."""
    return record.get("v") in POSITIONAL_VERSIONS


class Positional:
    """A positional array field: element ``i`` is the value named
    ``names[i]``, of the types ``types[i]`` (a nested ``Positional`` for
    an array element).  With ``may_be_empty`` an empty array is valid
    too: the value holds none of the named ones."""

    def __init__(self, fields: dict, may_be_empty: bool = False) -> None:
        self.names = tuple(fields)
        self.types = tuple(fields.values())
        length = len(self.names)
        #: The lengths a valid value has.
        self.lengths = (0, length) if may_be_empty else (length,)

    def problems(self, value) -> list[str]:
        """What is wrong with ``value``, each to follow the name of the
        field that holds it (empty: nothing)."""
        if not isinstance(value, list):
            return [
                f" is {type(value).__name__}, expected an array of "
                f"{len(self.names)}"
            ]
        if len(value) not in self.lengths:
            expected = " or ".join(map(str, self.lengths))
            return [f" has {len(value)} elements, expected {expected}"]
        return [
            f" element {name!r}{problem}"
            for name, accepted, element in zip(self.names, self.types, value)
            for problem in _problems(element, accepted)
        ]


#: A workload field's types (its order is :data:`WORKLOAD_FIELDS`).
_WORKLOAD_TYPES = {
    "qp_type": str, "opcode": str, "direction": str, "colocation": str,
    "sg_layout": str, "mtu": NUMBER, "num_qps": NUMBER, "wqe_batch": NUMBER,
    "sge_per_wqe": NUMBER, "wq_depth": NUMBER, "msg_sizes_bytes": list,
    "mrs_per_qp": NUMBER, "mr_bytes": NUMBER, "src_device": str,
    "dst_device": str, "duty_cycle": NUMBER,
}
#: A workload.
WORKLOAD_ARRAY = Positional(
    {name: _WORKLOAD_TYPES[name] for name in WORKLOAD_FIELDS}
)
#: An experiment's counter readings, one per counter, or none at all
#: (an experiment whose event kept no snapshot, as a BO+MFS probe).
COUNTERS_ARRAY = Positional(
    dict.fromkeys(ALL_COUNTERS, NUMBER), may_be_empty=True
)
#: The named delays of a latency summary's ``components``.
LATENCY_COMPONENTS = (
    "serialization_us", "pipeline_us", "pcie_us", "queueing_us",
    "cache_us", "pause_us", "stall_us",
)
#: An experiment's per-WR latency summary.
LATENCY_ARRAY = Positional({
    "p50_us": NUMBER, "p90_us": NUMBER, "p99_us": NUMBER, "mean_us": NUMBER,
    "baseline_us": NUMBER, "inflation": NUMBER,
    "components": Positional(dict.fromkeys(LATENCY_COMPONENTS, NUMBER)),
    "tags": list,
})

#: The latency summary's order.  It, :data:`LATENCY_COMPONENTS`,
#: :data:`WORKLOAD_FIELDS` (which :mod:`repro.analysis.serialize` owns)
#: and :data:`ALL_COUNTERS` (:mod:`repro.hardware.counters`) are the v8
#: format: a reader decodes an array by position with them, so a change
#: to any is a new version.
LATENCY_KEYS = LATENCY_ARRAY.names

#: SA transition actions the schema admits.
TRANSITION_ACTIONS = (
    "improve", "accept", "reject", "restart", "reheat", "exchange",
)

#: Record type → {field: accepted types}.  Extra fields are allowed
#: (forward compatibility); missing or mistyped ones are errors.
RECORD_FIELDS: dict = {
    "run_start": {
        "subsystem": str,
        "counter_mode": str,
        "use_mfs": bool,
        "budget_hours": NUMBER,
        "seed": MAYBE_INT,
    },
    "ranking": {
        "counters": list,
        "dispersions": MAYBE_DICT,
    },
    "experiment": {
        "time_seconds": NUMBER,
        "counter": str,
        "counter_value": NUMBER,
        "symptom": str,
        "tags": list,
        "kind": str,
        "workload": dict,
        "counters": dict,
        "new_anomaly_index": MAYBE_INT,
    },
    "anomaly": {
        "index": int,
        "event_index": MAYBE_INT,
        "mfs": dict,
    },
    "transition": {
        "time_seconds": NUMBER,
        "action": str,
        "temperature": NUMBER,
        "delta": NUMBER,
    },
    "skip": {
        "time_seconds": NUMBER,
    },
    "cache": {
        "phase": str,
        "hit": bool,
    },
    "snapshot": {
        "time_seconds": NUMBER,
        "experiments": int,
        "anomalies": int,
        "skipped": int,
        "metrics": dict,
    },
    "run_end": {
        "elapsed_seconds": NUMBER,
        "experiments": int,
        "skipped": int,
        "anomalies": int,
        "counter_ranking": list,
        "metrics": MAYBE_DICT,
    },
    "fanout": {
        "tasks": int,
        "workers": int,
        "wall_seconds": NUMBER,
        "busy_seconds": NUMBER,
        "fell_back_serial": bool,
    },
    "retry": {
        "task": int,
        "host": int,
        "attempt": int,
        "error": str,
        "backoff_seconds": NUMBER,
    },
    "quarantine": {
        "host": int,
        "failures": int,
        "redistributed": int,
    },
    "coverage": {
        "time_seconds": NUMBER,
        "experiments": int,
        "skips": int,
        "unique_points": int,
        "dimensions": dict,
    },
    "spans": {
        "events": list,
    },
    "latency": {
        "time_seconds": NUMBER,
        "p50_us": NUMBER,
        "p90_us": NUMBER,
        "p99_us": NUMBER,
        "mean_us": NUMBER,
        "baseline_us": NUMBER,
        "inflation": NUMBER,
        "components": dict,
        "tags": list,
    },
    "isolation": {
        "victim": dict,
        "victim_share": NUMBER,
        "alone_gbps": NUMBER,
        "alone_p99_us": NUMBER,
    },
    "heartbeat": {
        "worker": int,
        "done": int,
        "total": int,
        "wall_time": NUMBER,
    },
}

#: Record type → {field: accepted types} for fields that MAY appear.
#: Absent is fine (older writers); present-but-mistyped is an error.
OPTIONAL_RECORD_FIELDS: dict = {
    "transition": {"mutated": list},
    "skip": {"workload": dict},
    "experiment": {"interference": NUMBER},
}

#: The two tables above as :data:`POSITIONAL_VERSIONS` have them: each
#: workload, counter snapshot and latency summary a positional array.
POSITIONAL_FIELDS: dict = {
    **RECORD_FIELDS,
    "experiment": {
        **RECORD_FIELDS["experiment"],
        "workload": WORKLOAD_ARRAY,
        "counters": COUNTERS_ARRAY,
    },
    "isolation": {**RECORD_FIELDS["isolation"], "victim": WORKLOAD_ARRAY},
}
POSITIONAL_OPTIONAL_FIELDS: dict = {
    **OPTIONAL_RECORD_FIELDS,
    "skip": {"workload": WORKLOAD_ARRAY},
    "experiment": {
        **OPTIONAL_RECORD_FIELDS["experiment"],
        "latency": LATENCY_ARRAY,
    },
}
#: v9's required fields: v8's, less the ``metrics`` dumps.
EVENT_FIELDS: dict = {
    **POSITIONAL_FIELDS,
    **{
        kind: {
            name: accepted
            for name, accepted in RECORD_FIELDS[kind].items()
            if name != "metrics"
        }
        for kind in ("snapshot", "run_end")
    },
}


def validate_record(record, line: Optional[int] = None) -> list[str]:
    """Errors in one journal record (empty list = valid)."""
    where = f"line {line}: " if line is not None else ""
    if not isinstance(record, dict):
        return [f"{where}record is not an object"]
    errors = []
    version = record.get("v")
    if version not in SUPPORTED_VERSIONS:
        errors.append(
            f"{where}unsupported schema version {version!r} "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    kind = record.get("t")
    if kind not in RECORD_FIELDS:
        errors.append(f"{where}unknown record type {kind!r}")
        return errors
    required, optional = RECORD_FIELDS, OPTIONAL_RECORD_FIELDS
    if version == 9:
        required, optional = EVENT_FIELDS, POSITIONAL_OPTIONAL_FIELDS
    elif positional(record):
        required, optional = POSITIONAL_FIELDS, POSITIONAL_OPTIONAL_FIELDS
    for name, accepted in required[kind].items():
        if name not in record:
            errors.append(f"{where}{kind}: missing field {name!r}")
            continue
        errors.extend(_field_errors(record, kind, name, accepted, where))
    for name, accepted in optional.get(kind, {}).items():
        if name in record:
            errors.extend(_field_errors(record, kind, name, accepted, where))
    # ``chain`` (v5) may appear on any record type a population chain
    # writes; validated generically so new record types inherit it.
    if "chain" in record:
        errors.extend(_field_errors(record, kind, "chain", int, where))
    if kind == "transition":
        action = record.get("action")
        if isinstance(action, str) and action not in TRANSITION_ACTIONS:
            errors.append(
                f"{where}transition: unknown action {action!r} "
                f"(expected one of {', '.join(TRANSITION_ACTIONS)})"
            )
    return errors


def validate_journal(records: Iterable[dict]) -> list[str]:
    """Errors across a whole journal (1-based line numbers)."""
    errors: list[str] = []
    count = 0
    for line, record in enumerate(records, 1):
        count = line
        errors.extend(validate_record(record, line=line))
    if count == 0:
        errors.append("journal is empty")
    return errors


def _field_errors(record, kind, name, accepted, where) -> list[str]:
    return [
        f"{where}{kind}: field {name!r}{problem}"
        for problem in _problems(record[name], accepted)
    ]


def _problems(value, accepted) -> list[str]:
    if isinstance(accepted, Positional):
        return accepted.problems(value)
    # bool is an int subclass; don't let True satisfy an int field.
    if isinstance(value, bool) and bool not in (
        accepted if isinstance(accepted, tuple) else (accepted,)
    ):
        return [f" is bool, expected {_describe_types(accepted)}"]
    if not isinstance(value, accepted):
        return [
            f" is {type(value).__name__}, expected "
            f"{_describe_types(accepted)}"
        ]
    return []


def _describe_types(accepted) -> str:
    if isinstance(accepted, tuple):
        return " or ".join(t.__name__ for t in accepted)
    return accepted.__name__
