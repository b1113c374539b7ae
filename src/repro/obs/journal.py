"""The structured JSONL run journal: write, read, re-render.

One journal line per observable event (see :mod:`repro.obs.schema`);
the file is append-only NDJSON so a crashed run leaves a valid prefix.
The contract that makes the journal a *flight recorder* rather than a
log: :func:`reports_from_journal` re-renders the journal into
:class:`~repro.core.collie.SearchReport` objects equal to the in-memory
ones — same events, same anomalies, same totals — so every downstream
analysis (Figures 4–6, ``found_tags``, ``first_hit_times``) can run
from the file alone.

Floats survive exactly: ``json`` renders Python floats via ``repr``
(shortest round-tripping form) and NumPy scalars are coerced through
``.item()`` before serialisation, which preserves their value (and
``np.float64(x) == float(x)``, so reconstructed dataclasses still
compare equal).
"""

from __future__ import annotations

import gzip
import json
import os
from typing import IO, Callable, Iterable, Optional, Union

from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.core.annealing import TraceEvent
from repro.core.collie import SearchReport
from repro.obs.folds import (
    LATENCY_KEYS,
    MALFORMED_RECORD_ERRORS,
    PerRun,
    RecordCounts,
    RunReports,
    malformed_record,
    run_folds,
)
from repro.obs.schema import SCHEMA_VERSION


def _json_default(value):
    """Coerce NumPy scalars (``np.float64``/``np.int64``...) to Python."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"journal record value of type {type(value).__name__} "
        f"is not JSON-serialisable"
    )


#: One encoder for every record (``json.dumps`` with options builds a
#: fresh ``JSONEncoder`` per call).
_RECORD_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=_json_default
)


class RunJournal:
    """Append-only NDJSON writer with the schema version stamped in.

    Line-buffered: each record reaches the OS as soon as it is written,
    so a killed run still leaves every completed experiment on disk.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._handle: Optional[IO[str]] = open(
            self.path, "w", buffering=1, encoding="utf-8"
        )
        self.records_written = 0

    def write(self, record: dict) -> None:
        if self._handle is None:
            raise ValueError("journal is closed")
        payload = {"v": SCHEMA_VERSION}
        payload.update(record)
        self._handle.write(_RECORD_ENCODER.encode(payload) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Leading bytes of every gzip member (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def open_journal_text(path: Union[str, os.PathLike]) -> IO[str]:
    """Open a journal for reading, decompressing gzip transparently.

    Compression is sniffed from the file's magic bytes (not the name),
    so the canary corpus cells (``canary/corpus/*.jsonl.gz``) and a
    plain journal renamed to ``.gz`` both read correctly through every
    journal surface (``report``/``stats``/``journal diff``/...).
    """
    path = os.fspath(path)
    with open(path, "rb") as probe:
        magic = probe.read(len(_GZIP_MAGIC))
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def read_journal(path: Union[str, os.PathLike]) -> list[dict]:
    """Parse a journal file into records (blank lines are skipped)."""
    records, truncated = read_journal_prefix(path)
    if truncated is not None:
        raise ValueError(truncated)
    return records


def read_journal_prefix(
    path: Union[str, os.PathLike]
) -> tuple[list[dict], Optional[str]]:
    """Parse a journal's valid prefix, tolerating a truncated tail.

    Returns ``(records, tail_error)``; see :func:`scan_journal`.
    """
    records: list[dict] = []
    _, tail_error = scan_journal(path, records.append)
    return records, tail_error


def scan_journal(
    path: Union[str, os.PathLike],
    step: Callable[[dict], None],
    malformed: Optional[Callable[[ValueError], None]] = None,
) -> tuple[int, Optional[str]]:
    """Stream a journal's valid prefix into ``step``, record by record.

    A run killed mid-write leaves at most one partial line, and it is
    the *last* one (the journal is append-only and line-buffered).
    Returns ``(count, tail_error)``: how many records were stepped,
    and what dropped final partial line there was (``None`` for a clean
    journal).  An undecodable line anywhere *before* the last is
    corruption, and raises ``ValueError``; so does a record ``step``
    cannot read (one of :data:`~repro.obs.folds.MALFORMED_RECORD_ERRORS`),
    naming its file, line and type — or, when ``malformed`` is given,
    that ``ValueError`` goes to ``malformed`` and the scan goes on.
    """
    count = 0
    pending_error: Optional[str] = None
    with open_journal_text(path) as handle:
        for line_number, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if pending_error is not None:
                # The bad line was not the last one: real corruption.
                raise ValueError(pending_error)
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as error:
                pending_error = (
                    f"{os.fspath(path)}: line {line_number} is not valid "
                    f"JSON: {error}"
                )
                continue
            try:
                step(record)
            except MALFORMED_RECORD_ERRORS as error:
                failure = malformed_record(
                    f"{os.fspath(path)}: line {line_number}", record, error
                )
                if malformed is None:
                    raise failure from error
                malformed(failure)
                continue
            count += 1
    if pending_error is not None:
        return count, pending_error + " (truncated tail dropped)"
    return count, None


# -- record constructors (the write side the recorder uses) ------------------


def experiment_record(event: TraceEvent) -> dict:
    record = {
        "t": "experiment",
        "time_seconds": event.time_seconds,
        "counter": event.counter,
        "counter_value": event.counter_value,
        "symptom": event.symptom,
        "tags": list(event.tags),
        "kind": event.kind,
        "workload": workload_to_dict(event.workload),
        "counters": dict(event.counters),
        "new_anomaly_index": event.new_anomaly_index,
    }
    # Only isolation (co-run) searches stamp interference; solo
    # journals stay byte-identical to pre-v6 writers.
    if event.interference is not None:
        record["interference"] = event.interference
    return record


def isolation_record(victim_dict: dict, victim_share, floor) -> dict:
    """The isolation run preamble (pinned victim + alone-floor)."""
    return {
        "t": "isolation",
        "victim": victim_dict,
        "victim_share": victim_share,
        "alone_gbps": floor.alone_gbps,
        "alone_p99_us": floor.alone_p99_us,
    }


def anomaly_record(index: int, event_index: Optional[int], mfs) -> dict:
    return {
        "t": "anomaly",
        "index": index,
        "event_index": event_index,
        "mfs": mfs_to_dict(mfs),
    }


def latency_record(event: TraceEvent) -> dict:
    """Latency twin of an experiment record (requires ``event.latency``)."""
    record = {"t": "latency", "time_seconds": event.time_seconds}
    for key in LATENCY_KEYS:
        record[key] = event.latency[key]
    return record


# -- reconstruction (the read side) ------------------------------------------


class _RunGroups(PerRun):
    """Each run's records, as a list."""

    def start_run(self, record: dict) -> list[dict]:
        return [record]

    def step_run(self, run: list, kind: str, record: dict) -> list[dict]:
        run.append(record)
        return run


def run_records(records: Iterable[dict]) -> list[list[dict]]:
    """Per-run record groups, split on ``run_start`` delimiters.

    Records before the first ``run_start`` (fan-out accounting, stray
    snapshots) are ignored.  The canary's invariant pass iterates these
    groups directly so it can attribute a violation to one run without
    first paying for full report reconstruction.

    Population journals (schema v5) interleave N chains' records in one
    file; records are first demultiplexed by their ``chain`` stamp — in
    first-appearance order — then each chain's stream splits on its own
    ``run_start`` (:class:`~repro.obs.folds.PerRun`).
    """
    (groups,) = run_folds(records, _RunGroups())
    return groups.runs()


def reports_from_records(records: Iterable[dict]) -> list[SearchReport]:
    """Every run in a journal, re-rendered as SearchReports (the
    :class:`~repro.obs.folds.RunReports` fold, keeping the events)."""
    (runs,) = run_folds(records, RunReports(events=True))
    return runs.reports()


def reports_from_journal(
    path: Union[str, os.PathLike]
) -> list[SearchReport]:
    """:func:`reports_from_records` streamed from a journal file (a
    truncated tail raises ``ValueError``, as :func:`read_journal`)."""
    runs = RunReports(events=True)
    _, tail_error = scan_journal(path, runs.step)
    if tail_error is not None:
        raise ValueError(tail_error)
    return runs.reports()


def journal_summary(records: Iterable[dict]) -> dict:
    """Shape overview of a journal: record counts, runs, anomalies,
    and ``crashed_runs`` (see :class:`~repro.obs.folds.RecordCounts`),
    so a truncated journal never masquerades as a finished one."""
    (counts,) = run_folds(records, RecordCounts())
    return counts.result()


# -- verification (the ``repro journal verify`` surface) ----------------------

#: ``verify_journal`` verdict codes (doubling as CLI exit codes).
VERIFY_OK = 0          #: valid and every run ran to completion.
VERIFY_INCOMPLETE = 1  #: valid prefix, but crashed/partial state.
VERIFY_CORRUPT = 2     #: unreadable, mid-file corruption, bad schema.


def verify_journal(path: Union[str, os.PathLike]) -> tuple[int, list[str]]:
    """Check a journal file end to end: ``(verdict, messages)``.

    Verdicts: :data:`VERIFY_OK` — schema-valid and every run is
    complete; :data:`VERIFY_INCOMPLETE` — the valid prefix is usable
    (resumable) but the journal records an interrupted campaign
    (truncated final line and/or a ``run_start`` with no ``run_end``);
    :data:`VERIFY_CORRUPT` — the file is unreadable, corrupt before
    its final line, or fails schema validation.
    """
    from repro.obs.schema import validate_record

    counts = RecordCounts()
    errors: list[str] = []
    line = 0

    def check(record: dict) -> None:
        nonlocal line
        line += 1
        errors.extend(validate_record(record, line=line))
        if not errors:
            counts.step(record)

    messages: list[str] = []
    try:
        count, tail_error = scan_journal(path, check)
    except OSError as error:
        return VERIFY_CORRUPT, [f"cannot read journal: {error}"]
    except ValueError as error:
        return VERIFY_CORRUPT, [str(error)]
    if errors:
        return VERIFY_CORRUPT, errors
    if not count:
        messages.append("journal is empty")
        if tail_error is not None:
            messages.append(tail_error)
        return VERIFY_INCOMPLETE, messages
    verdict = VERIFY_OK
    if tail_error is not None:
        verdict = VERIFY_INCOMPLETE
        messages.append(tail_error)
    shape = counts.result()
    if shape["crashed_runs"]:
        verdict = VERIFY_INCOMPLETE
        messages.append(
            f"{shape['crashed_runs']} of {shape['runs']} run(s) never "
            f"wrote a run_end record (crashed or still in flight)"
        )
    if verdict == VERIFY_OK:
        messages.append(
            f"journal is complete: {shape['records']} records, "
            f"{shape['complete_runs']} finished run(s)"
        )
    return verdict, messages
