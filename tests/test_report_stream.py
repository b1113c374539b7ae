"""``repro report`` streams each journal through one fold pass.

Its output is compared, byte for byte, with the implementation it
replaced (kept here as the reference): one that read every record into
a list, schema-checked the list, and rebuilt a ``SearchReport`` with a
``TraceEvent`` per experiment.  Its memory must not grow with the
journal beyond a few floats per record.
"""

import dataclasses
import gzip
import json
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro import cli
from repro.analysis.figures import counter_trace
from repro.analysis.serialize import (
    mfs_from_dict,
    report_to_dict,
    workload_from_dict,
)
from repro.cli import main
from repro.core.annealing import TraceEvent
from repro.core.collie import SearchReport
from repro.obs.folds import (
    LATENCY_KEYS,
    Isolation,
    JournalMetrics,
    RecordCounts,
    run_folds,
)
from repro.obs.journal import read_journal_prefix, run_records
from repro.obs.schema import validate_journal

TESTS = Path(__file__).resolve().parent
FIXTURES = sorted((TESTS / "obs" / "fixtures").glob("v*.jsonl"))
CORPUS = sorted((TESTS.parent / "canary" / "corpus").glob("*.jsonl.gz"))
COUNTER = "tx_bytes_per_sec"


# -- the reference: every record in a list --------------------------------------


def _reference_event(record: dict) -> TraceEvent:
    return TraceEvent(
        time_seconds=record["time_seconds"],
        counter=record["counter"],
        counter_value=record["counter_value"],
        symptom=record["symptom"],
        tags=tuple(record["tags"]),
        workload=workload_from_dict(record["workload"]),
        kind=record["kind"],
        new_anomaly_index=record.get("new_anomaly_index"),
        counters=dict(record["counters"]),
        interference=record.get("interference"),
    )


def _reference_report(records: list) -> SearchReport:
    start = records[0] if records[0].get("t") == "run_start" else {}
    events, anomalies, ranking, skips, end = [], [], None, 0, None
    for record in records:
        kind = record.get("t")
        if kind == "experiment":
            events.append(_reference_event(record))
        elif kind == "latency" and events:
            summary = {
                key: (
                    dict(record[key]) if key == "components"
                    else list(record[key]) if key == "tags"
                    else record[key]
                )
                for key in LATENCY_KEYS
            }
            events[-1] = dataclasses.replace(events[-1], latency=summary)
        elif kind == "anomaly":
            anomalies.append((record["index"], record))
        elif kind == "skip":
            skips += 1
        elif kind == "ranking":
            ranking = list(record["counters"])
        elif kind == "run_end":
            end = record
    anomalies.sort(key=lambda pair: pair[0])
    for index, record in anomalies:
        event_index = record.get("event_index")
        if event_index is not None and 0 <= event_index < len(events):
            events[event_index] = dataclasses.replace(
                events[event_index], new_anomaly_index=index
            )
    if end is not None:
        totals = (end["experiments"], end["skipped"],
                  end["elapsed_seconds"], list(end["counter_ranking"]))
    else:
        totals = (len(events), skips,
                  max((e.time_seconds for e in events), default=0.0),
                  ranking or [])
    return SearchReport(
        subsystem_name=start.get("subsystem", "?"),
        counter_mode=start.get("counter_mode", "diag"),
        use_mfs=start.get("use_mfs", True),
        anomalies=[mfs_from_dict(record["mfs"]) for _, record in anomalies],
        events=events,
        experiments=totals[0],
        skipped_points=totals[1],
        elapsed_seconds=totals[2],
        counter_ranking=totals[3],
    )


def reference_reports(records: list) -> list[SearchReport]:
    return [_reference_report(run) for run in run_records(records)]


def _reference_latency_line(summaries) -> Optional[str]:
    if not summaries:
        return None
    p50 = float(np.median([s["p50_us"] for s in summaries]))
    p90 = float(np.median([s["p90_us"] for s in summaries]))
    p99 = float(np.median([s["p99_us"] for s in summaries]))
    worst = max(float(s["inflation"]) for s in summaries)
    return (
        f"latency p50/p90/p99 {p50:.1f}/{p90:.1f}/{p99:.1f} us "
        f"(medians over {len(summaries)} experiments, "
        f"worst inflation {worst:.2f}x)"
    )


def _reference_trajectory(path: str, reports, counter: str) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", "time_seconds", "value", "kind", "symptom"])
        for run, report in enumerate(reports, 1):
            for event in report.events:
                if counter in event.counters:
                    value = float(event.counters[counter])
                elif event.counter == counter:
                    value = float(event.counter_value)
                else:
                    continue
                writer.writerow(
                    [run, repr(float(event.time_seconds)), repr(value),
                     event.kind, event.symptom]
                )


def reference_report_one(path, args, payloads) -> int:
    """``cli._report_one`` as it was before it streamed."""
    logger = cli.logger
    try:
        records, tail_error = read_journal_prefix(path)
    except OSError as error:
        logger.error(f"cannot read journal {path}: {error}")
        return 2
    except ValueError as error:
        logger.error(f"{error}")
        return 2
    if tail_error is not None:
        logger.warning(
            f"{tail_error} — rendering the valid prefix "
            f"({len(records)} records)"
        )
    errors = validate_journal(records)
    if errors:
        for message in errors[:10]:
            logger.error(message)
        if len(errors) > 10:
            logger.error(f"... and {len(errors) - 10} more")
        logger.error(
            f"journal {path} failed schema validation "
            f"({len(errors)} error(s))"
        )
        return 2
    if getattr(args, "json", False):
        metrics = JournalMetrics()
        run_folds(records, *metrics.folds)
        payloads.append({
            "journal": str(path),
            "summary": metrics.counts.result(),
            "metrics": metrics.result(),
            "runs": [
                report_to_dict(report)
                for report in reference_reports(records)
            ],
        })
        return 0
    counts, isolation = run_folds(records, RecordCounts(), Isolation())
    shape = counts.result()
    logger.info(
        f"journal {path}: {shape['records']} records, "
        f"{shape['runs']} run(s), {shape['experiments']} experiments, "
        f"{shape['anomalies']} anomalies, {shape['skips']} skips, "
        f"{shape['transitions']} SA transitions, "
        f"{shape['cache_events']} cache events"
    )
    if shape["retries"] or shape["quarantines"]:
        logger.info(
            f"resilience: {shape['retries']} retried attempt(s), "
            f"{shape['quarantines']} quarantined host(s)"
        )
    cli._report_isolation(isolation)
    if shape["crashed_runs"]:
        logger.warning(
            f"{shape['crashed_runs']} of {shape['runs']} run(s) are "
            f"partial (no run_end record) — this campaign crashed or is "
            f"still in flight; resume it with 'repro campaign --resume "
            f"{path}'"
        )
    completeness = counts.runs()
    reports = reference_reports(records)
    for index, report in enumerate(reports, 1):
        logger.info("")
        crashed = "" if completeness[index - 1] else " [CRASHED — partial]"
        logger.info(f"run {index}:{crashed} {report.summary()}")
        hits = sorted(
            report.first_hit_times().items(), key=lambda item: item[1]
        )
        if hits:
            logger.info("  anomaly timeline (first anomalous hit per tag):")
            for tag, seconds in hits:
                logger.info(f"    {seconds / 3600:8.2f}h  {tag}")
        latency_line = _reference_latency_line(
            [e.latency for e in report.events if e.latency is not None]
        )
        if latency_line is not None:
            logger.info(f"  {latency_line}")
    if args.counter:
        events = [event for report in reports for event in report.events]
        trace = counter_trace("journal", events, args.counter)
        if not trace.hours:
            logger.warning(
                f"counter {args.counter!r} never observed in {path}"
            )
            return 1
        if args.trajectory:
            _reference_trajectory(args.trajectory, reports, args.counter)
            logger.info(
                f"counter trajectory ({len(trace.hours)} points) "
                f"written to {args.trajectory}"
            )
        else:
            logger.info("")
            logger.info(f"trace of {args.counter} (normalised, 24 buckets):")
            for hour, value in trace.bucketed(24):
                bar = "#" * int(round(value * 40))
                logger.info(f"  {hour:6.2f}h |{bar}")
    return 0


# -- the journals ----------------------------------------------------------------


def _lines(path: Path) -> list[str]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return handle.read().splitlines(keepends=True)


def _reversed_anomalies(lines: list[str]) -> list[str]:
    """Each chain's anomaly records in reverse order, in the same slots
    (a reader must order a run's anomalies by index, not by line)."""
    slots: dict = {}
    for number, line in enumerate(lines):
        record = json.loads(line)
        if record.get("t") == "anomaly":
            slots.setdefault(record.get("chain"), []).append(number)
    out = list(lines)
    for numbers in slots.values():
        for slot, source in zip(numbers, reversed(numbers)):
            out[slot] = lines[source]
    return out


def _kind(line: str) -> str:
    return json.loads(line)["t"]


def _healthy_tagged(lines: list[str]) -> list[str]:
    """Every healthy experiment tagged with the run's anomaly tags: a
    tag fired without an observable symptom is not a first hit."""
    tags = sorted({
        tag for line in lines if _kind(line) == "experiment"
        for tag in json.loads(line)["tags"]
    })
    out = []
    for line in lines:
        record = json.loads(line)
        if record["t"] == "experiment" and record["symptom"] == "healthy":
            line = json.dumps({**record, "tags": tags}) + "\n"
        out.append(line)
    return out


def _without_field(line: str, field: str) -> str:
    record = json.loads(line)
    del record[field]
    return json.dumps(record) + "\n"


@pytest.fixture(scope="module")
def journals(tmp_path_factory) -> dict:
    """Name -> the journal paths one ``report`` call renders."""
    work = tmp_path_factory.mktemp("report-stream")
    chains = work / "chains.jsonl"
    assert main(["search", "F", "--hours", "1", "--seed", "1",
                 "--chains", "3", "--journal", str(chains)]) == 0
    lines = _lines(chains)
    variants = {
        # Cut mid-line: a torn tail, and every chain's run crashed.
        "torn": "".join(lines[: len(lines) * 3 // 5])
        + lines[len(lines) * 3 // 5][:40],
        # Chain 1 never wrote its run_end: one crashed run.
        "crashed": "".join(
            line for line in lines
            if _kind(line) != "run_end" or json.loads(line)["chain"] != 1
        ),
        "anomalies-reversed": "".join(_reversed_anomalies(lines)),
        "healthy-tagged": "".join(_healthy_tagged(lines)),
        "schema-invalid": "".join(
            _without_field(line, "time_seconds") if number in (7, 300)
            else line for number, line in enumerate(lines)
        ),
    }
    found = {path.name: [path] for path in (*FIXTURES, *CORPUS)}
    found["chains"] = [chains]
    for name, text in variants.items():
        path = work / f"{name}.jsonl"
        path.write_text(text)
        found[name] = [path]
    found["two-journals"] = [FIXTURES[-1], chains]
    return found


JOURNALS = [
    *(path.name for path in (*FIXTURES, *CORPUS)),
    "chains", "torn", "crashed", "anomalies-reversed", "healthy-tagged",
    "schema-invalid", "two-journals",
]
MODES = {
    "plain": [],
    "json": ["--json"],
    "counter": ["--counter", COUNTER],
    "trajectory": ["--counter", COUNTER, "--trajectory"],
}


def _render(paths, mode, csv: Path, capsys) -> tuple:
    flags = list(MODES[mode])
    if mode == "trajectory":
        flags.append(str(csv))
    code = main(["report", *flags, *map(str, paths)])
    captured = capsys.readouterr()
    written = csv.read_bytes() if csv.exists() else None
    if csv.exists():
        csv.unlink()
    return code, captured.out, captured.err, written


class TestSameOutput:
    def test_the_set_covers_every_fixture_and_corpus_cell(self):
        assert len(FIXTURES) == 6
        assert len(CORPUS) == 24

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("journal", JOURNALS)
    def test_stream_equals_records_list(
        self, journal, mode, journals, tmp_path, capsys, monkeypatch
    ):
        paths = journals[journal]
        csv = tmp_path / "trajectory.csv"
        streamed = _render(paths, mode, csv, capsys)
        monkeypatch.setattr(cli, "_report_one", reference_report_one)
        listed = _render(paths, mode, csv, capsys)
        assert streamed == listed
        if mode == "trajectory" and journal == "chains":
            rows = streamed[3].decode().splitlines()
            experiments = sum(
                _kind(line) == "experiment" for line in _lines(paths[0])
            )
            assert len(rows) == experiments + 1  # one row per experiment


# -- memory ----------------------------------------------------------------------


def _synthetic(path: Path, records: int) -> None:
    """One run of about ``records`` records: the first v7 run's body
    (anomalies left out: they are kept, by design) repeated."""
    lines = _lines(FIXTURES[-1])
    kinds = [_kind(line) for line in lines]
    start, end = kinds.index("run_start"), kinds.index("run_end")
    head, tail = lines[start], lines[end]
    body = [
        line for line, kind in zip(lines[start + 1:end], kinds[start + 1:end])
        if kind != "anomaly"
    ]
    with open(path, "w") as handle:
        handle.write(head)
        for number in range(records - 2):
            handle.write(body[number % len(body)])
        handle.write(tail)


#: Largest peak-memory growth allowed per added record.
FLAT_BYTES_PER_RECORD = 256


class TestFlatMemory:
    @pytest.mark.parametrize("mode", MODES)
    def test_peak_grows_by_a_few_floats_per_record(
        self, mode, tmp_path, capsys
    ):
        small, large = 1500, 6000
        csv = tmp_path / "trajectory.csv"
        peaks = {}
        for records in (small, large):
            path = tmp_path / f"{records}.jsonl"
            _synthetic(path, records)
            if records == small:  # imports and caches: not per record
                _render([path], mode, csv, capsys)
            tracemalloc.start()
            try:
                code, *_ = _render([path], mode, csv, capsys)
                peaks[records] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        growth = (peaks[large] - peaks[small]) / (large - small)
        assert growth < FLAT_BYTES_PER_RECORD, f"{growth:.0f} B per record"
