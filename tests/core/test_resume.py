"""Journal-backed checkpoint/resume: kill anywhere, restart, same bits.

The crash-tolerance contract: a campaign journal's valid prefix is
enough to resume from *any* interruption point, and the resumed
campaign's final reports are byte-identical to an uninterrupted run.
The sweep below kills a recorded campaign at every journal-record
boundary (plus a torn final line) and pins exactly that.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.campaign import (
    completed_runs_from_journal,
    run_campaign,
)
from repro.analysis.serialize import report_to_dict
from repro.cli import main
from repro.core.evalcache import EvalCache
from repro.obs import (
    VERIFY_INCOMPLETE,
    VERIFY_OK,
    FlightRecorder,
    RunJournal,
    journal_summary,
    read_journal,
    reports_from_journal,
    verify_journal,
)

HOURS = 0.25
SEEDS = (1, 2, 3)


def campaign(**kwargs):
    return run_campaign(
        "collie", "H", seeds=SEEDS, budget_hours=HOURS, **kwargs
    )


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """One uninterrupted recorded campaign: (result, journal path)."""
    path = tmp_path_factory.mktemp("resume") / "full.jsonl"
    recorder = FlightRecorder(journal=RunJournal(path))
    result = campaign(recorder=recorder)
    recorder.close()
    return result, path


def report_bytes(reports):
    """Canonical serialization — the byte-identity the suite pins."""
    return json.dumps(
        [report_to_dict(report) for report in reports], sort_keys=True
    ).encode()


class TestResumeAtEveryBoundary:
    def test_killed_anywhere_resumes_bit_identically(self, full, tmp_path):
        result, path = full
        lines = path.read_text().splitlines()
        reference = report_bytes(result.reports)
        prefix_path = tmp_path / "interrupted.jsonl"
        replayed_counts = set()
        for boundary in range(len(lines) + 1):
            prefix_path.write_text(
                "".join(line + "\n" for line in lines[:boundary])
            )
            resumed = campaign(resume_from=str(prefix_path))
            assert resumed.reports == result.reports, (
                f"reports diverged resuming from boundary {boundary}"
            )
            assert report_bytes(resumed.reports) == reference, (
                f"serialization diverged at boundary {boundary}"
            )
            expected_replayed = tuple(sorted(
                completed_runs_from_journal(prefix_path)
            ))
            assert resumed.resumed_seeds == expected_replayed
            replayed_counts.add(len(resumed.resumed_seeds))
        # The sweep really exercised every resume shape: nothing done,
        # each partial prefix, and the everything-already-done case.
        assert replayed_counts == {0, 1, 2, 3}

    def test_torn_final_line_is_tolerated(self, full, tmp_path):
        result, path = full
        lines = path.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "".join(line + "\n" for line in lines[: len(lines) // 2])
            + '{"v":2,"t":"experi'
        )
        resumed = campaign(resume_from=str(torn))
        assert resumed.reports == result.reports
        assert report_bytes(resumed.reports) == report_bytes(result.reports)

    def test_midfile_corruption_is_rejected(self, full, tmp_path):
        _, path = full
        lines = path.read_text().splitlines()
        lines[3] = "{not json at all"
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match="line 4"):
            campaign(resume_from=str(corrupt))


class TestResumedJournal:
    @pytest.fixture(scope="class")
    def resumed(self, full, tmp_path_factory):
        """Interrupt mid-third-run, resume with a fresh recorder."""
        _, path = full
        records = read_journal(path)
        lines = path.read_text().splitlines()
        run_ends = [
            i for i, r in enumerate(records) if r["t"] == "run_end"
        ]
        boundary = run_ends[1] + 3  # inside the third run's body
        base = tmp_path_factory.mktemp("resumed")
        interrupted = base / "interrupted.jsonl"
        interrupted.write_text(
            "".join(line + "\n" for line in lines[:boundary])
        )
        resumed_path = base / "resumed.jsonl"
        recorder = FlightRecorder(journal=RunJournal(resumed_path))
        result = campaign(
            resume_from=str(interrupted), recorder=recorder
        )
        recorder.close()
        return result, interrupted, resumed_path

    def test_interrupted_journal_verifies_incomplete(self, resumed):
        _, interrupted, _ = resumed
        verdict, messages = verify_journal(interrupted)
        assert verdict == VERIFY_INCOMPLETE
        assert any("crashed" in m for m in messages)

    def test_resumed_journal_is_complete_and_verifies_ok(self, resumed):
        result, _, resumed_path = resumed
        assert result.resumed_seeds == (1, 2)
        verdict, messages = verify_journal(resumed_path)
        assert verdict == VERIFY_OK, messages
        summary = journal_summary(read_journal(resumed_path))
        assert summary["complete_runs"] == len(SEEDS)
        assert summary["crashed_runs"] == 0

    def test_resumed_journal_rerenders_the_full_campaign(
        self, resumed, full
    ):
        _, _, resumed_path = resumed
        _, full_path = full
        assert reports_from_journal(resumed_path) == (
            reports_from_journal(full_path)
        )


class TestWarmCache:
    def test_resumed_run_replays_over_cache_hits(self, full):
        """A resume warm-started from the crashed run's cache store
        re-evaluates nothing: the recomputed seed's hit-rate is 1.0,
        at least the completed prefix's own rate."""
        result, _ = full
        store = EvalCache()
        prefix = campaign(cache=store)
        assert prefix.reports == result.reports  # cache changes nothing
        prefix_rate = store.hit_rate
        hits_before, misses_before = store.hits, store.misses
        resumed = campaign(
            resume_from={1: prefix.reports[0], 2: prefix.reports[1]},
            cache=store,
        )
        assert resumed.reports == result.reports
        new_hits = store.hits - hits_before
        new_misses = store.misses - misses_before
        assert new_hits > 0
        resumed_rate = new_hits / (new_hits + new_misses)
        assert resumed_rate == 1.0
        assert resumed_rate >= prefix_rate

    def test_cold_resume_still_matches(self, full):
        result, _ = full
        cold = EvalCache()
        resumed = campaign(
            resume_from={1: result.reports[0]}, cache=cold
        )
        assert resumed.reports == result.reports
        assert resumed.resumed_seeds == (1,)


# -- memory ----------------------------------------------------------------------

FIXTURE = Path(__file__).resolve().parents[1] / "obs" / "fixtures" / "v7.jsonl"

#: Largest growth per added record of the peak above what resume keeps
#: (the replayed reports' events).
FLAT_BYTES_PER_RECORD = 256


def _synthetic(path: Path, records: int) -> None:
    """One complete seed-1 run of about ``records`` records: the first
    v7 fixture run's body (anomalies left out) repeated."""
    lines = FIXTURE.read_text().splitlines(keepends=True)
    kinds = [json.loads(line)["t"] for line in lines]
    start, end = kinds.index("run_start"), kinds.index("run_end")
    body = [
        line for line, kind in zip(lines[start + 1:end], kinds[start + 1:end])
        if kind != "anomaly"
    ]
    with open(path, "w") as handle:
        handle.write(lines[start])
        for number in range(records - 2):
            handle.write(body[number % len(body)])
        handle.write(lines[end])


def _traced(call) -> tuple:
    """``(kept, peak)``: traced bytes still held after ``call`` (its
    result alive) and the peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept, peak


class TestFlatMemory:
    """Resume streams its journal: beyond the replayed reports' events,
    the peak grows by a few bytes per record, not by the record."""

    def test_peak_above_the_kept_reports_is_flat(self, tmp_path):
        small, large = 1500, 6000
        growth: dict = {"fold": {}, "campaign": {}, "cli": {}}
        for records in (small, large):
            path = tmp_path / f"{records}.jsonl"
            _synthetic(path, records)
            calls = {
                "fold": lambda: completed_runs_from_journal(path),
                "campaign": lambda: run_campaign(
                    "collie", "F", seeds=(1,), budget_hours=HOURS,
                    resume_from=str(path),
                ),
                "cli": lambda: main([
                    "campaign", "collie", "--subsystem", "F", "--seed", "1",
                    "--seeds", "1", "--hours", str(HOURS),
                    "--resume", str(path),
                ]),
            }
            if records == small:  # imports and caches: not per record
                resumed = calls["campaign"]()
                assert resumed.resumed_seeds == (1,)
                assert resumed.reports == [calls["fold"]()[1]]
                assert calls["cli"]() == 0
            kept, peak = _traced(calls["fold"])
            growth["fold"][records] = peak - kept
            kept_campaign, peak = _traced(calls["campaign"])
            growth["campaign"][records] = peak - kept_campaign
            # main returns an exit code: its peak is measured above what
            # the fold keeps, the reports main holds while it replays.
            growth["cli"][records] = _traced(calls["cli"])[1] - kept
        for name, peaks in growth.items():
            per_record = (peaks[large] - peaks[small]) / (large - small)
            assert per_record < FLAT_BYTES_PER_RECORD, (
                f"{name}: {per_record:.0f} B per record"
            )
