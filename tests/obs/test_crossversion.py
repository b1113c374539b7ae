"""Cross-version journal reads: old journals must keep working.

``tests/obs/fixtures/v1.jsonl`` … ``v9.jsonl`` are committed
older-version forms of real recorded search journals (subsystem F):
v1 predates the resilience records, v2 has ``retry``/``quarantine``
but no observatory ``coverage``/``spans``, v3 has the observatory
records but predates the ``latency`` stream, v5 is a two-chain
population journal (chain stamps + latency records), v6 is an
isolation (adversarial-neighbor) journal with the ``isolation``
preamble and per-experiment ``interference`` stamps, v7 is a
telemetered two-seed campaign journal carrying live-telemetry
``heartbeat`` records, v8 is the v5 search written as positional
arrays with no ``latency`` records (``search F --hours 0.15 --seed 1
--chains 2``, wall-clock fields zeroed), and v9 is that same search
journaled as events only: no ``metrics`` dump in its ``run_end``
records (nor any wall-clock field to zero).  Every reader —
validator, report reconstruction, metrics, the canary's invariant
pass — must accept all of them forever: the canary corpus is
committed once and read by every future version of the code.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.journaldiff import diff_journals, journal_metrics
from repro.canary import check_cell
from repro.canary.corpus import CorpusCell
from repro.cli import main
from repro.obs import (
    SUPPORTED_VERSIONS,
    reports_from_records,
    validate_journal,
)
from repro.obs.folds import RecordCounts, run_folds
from tests.obs.journal_shapes import as_keyed, as_positional

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE_SUBSYSTEM = "F"  # the subsystem the fixture journals recorded


def describe_unknown_kinds(records) -> list:
    return run_folds(records, RecordCounts())[0].unknown_notes()


def fixture_records(version: int) -> list:
    path = os.path.join(FIXTURES, f"v{version}.jsonl")
    with open(path) as handle:
        return [json.loads(line) for line in handle]


#: Fixture version → its ``coverage_fraction``, pinned exactly: a change
#: in how points are bucketed shows here, not only in the canary's
#: tolerance gates.
FIXTURE_COVERAGE_FRACTIONS = {
    1: 0.830109126984127,
    2: 0.830109126984127,
    3: 0.966294642857143,
    5: 0.6500868055555555,
    6: 0.6382688492063491,
    7: 0.6500868055555555,
    8: 0.6500868055555555,
    9: 0.6500868055555555,
}

#: Fixture version → how many search reports its journal reconstructs
#: (v5, v8 and v9 are two-chain population journals, v7 a two-seed
#: campaign; the rest are single runs).
FIXTURE_REPORT_COUNTS = {1: 1, 2: 1, 3: 1, 5: 2, 6: 1, 7: 2, 8: 2, 9: 2}


@pytest.mark.parametrize("version", (1, 2, 3, 5, 6, 7, 8, 9))
class TestOldJournalsStillWork:
    def test_validates_under_current_schema(self, version):
        records = fixture_records(version)
        assert all(r["v"] == version for r in records)
        assert validate_journal(records) == []

    def test_reconstructs_reports(self, version):
        reports = reports_from_records(fixture_records(version))
        assert len(reports) == FIXTURE_REPORT_COUNTS[version]
        for report in reports:
            assert report.subsystem_name == FIXTURE_SUBSYSTEM
            assert report.experiments > 0
            assert len(report.anomalies) >= 1

    def test_feeds_the_metric_pipeline(self, version):
        metrics = journal_metrics(fixture_records(version))
        assert metrics["anomalies"] >= 1
        assert metrics["time_to_first_anomaly_seconds"] is not None
        assert metrics["mfs_shape_counts"]
        # A fixture diffed against itself is exactly clean.
        records = fixture_records(version)
        assert diff_journals(records, records).ok

    def test_coverage_fraction_is_pinned(self, version):
        metrics = journal_metrics(fixture_records(version))
        assert repr(metrics["coverage_fraction"]) == repr(
            FIXTURE_COVERAGE_FRACTIONS[version]
        )

    def test_renders_through_report_cli(self, version, capsys):
        path = os.path.join(FIXTURES, f"v{version}.jsonl")
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "anomalies" in out

    def test_report_json_roundtrips(self, version, capsys):
        path = os.path.join(FIXTURES, f"v{version}.jsonl")
        assert main(["report", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["anomalies"] >= 1

    def test_passes_the_canary_invariant_pass(self, version):
        """Old journals' anomalies still reproduce on today's testbed."""
        cell = CorpusCell(
            name=f"v{version}-fixture",
            subsystem=FIXTURE_SUBSYSTEM,
            seed=1,
            records=fixture_records(version),
        )
        assert check_cell(cell) == []


class TestIsolationJournalSurfaces:
    """v6-specific read surfaces over the isolation fixture."""

    def test_metrics_have_the_isolation_family(self):
        metrics = journal_metrics(fixture_records(6))
        assert metrics["isolation_experiments"] > 0
        assert 0.0 <= metrics["interference_min"] <= 1.0

    def test_report_names_the_victim(self, capsys):
        path = os.path.join(FIXTURES, "v6.jsonl")
        assert main(["report", path]) == 0
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "isolation run: victim" in text
        assert "worst interference" in text

    def test_solo_journals_carry_no_isolation_family(self):
        metrics = journal_metrics(fixture_records(5))
        assert metrics["isolation_experiments"] == 0
        assert metrics["interference_min"] is None


class TestTelemetryJournalSurfaces:
    """v7-specific read surfaces over the telemetered campaign fixture."""

    def test_heartbeats_are_counted_and_fold_into_liveness(self):
        from repro.obs import CampaignAggregator, journal_summary

        records = fixture_records(7)
        assert journal_summary(records)["heartbeats"] == 2
        agg = CampaignAggregator(
            [os.path.join(FIXTURES, "v7.jsonl")]
        )
        agg.refresh()
        snap = agg.snapshot(now=0.0)
        assert snap["totals"]["workers_total"] == 2
        assert snap["totals"]["runs"] == 2

    def test_canonical_form_drops_heartbeats(self):
        from repro.canary.corpus import canonical_journal_bytes

        records = fixture_records(7)
        stripped = [r for r in records if r["t"] != "heartbeat"]
        assert canonical_journal_bytes(records) == canonical_journal_bytes(
            stripped
        )
        assert b"heartbeat" not in canonical_journal_bytes(records)

    def test_gated_metrics_ignore_heartbeats(self):
        records = fixture_records(7)
        stripped = [r for r in records if r["t"] != "heartbeat"]
        assert journal_metrics(records) == journal_metrics(stripped)


class TestPositionalJournalSurfaces:
    """v8-specific: one record per experiment, read like its v7 twin."""

    def test_one_record_per_experiment(self):
        from repro.obs import journal_summary

        records = fixture_records(8)
        summary = journal_summary(records)
        assert "latency" not in summary["by_type"]
        experiments = [r for r in records if r["t"] == "experiment"]
        assert experiments and all("latency" in r for r in experiments)

    def test_reads_exactly_like_its_v7_twin(self):
        records = fixture_records(8)
        twin = as_keyed(records)
        assert validate_journal(twin) == []
        assert reports_from_records(records) == reports_from_records(twin)
        assert journal_metrics(records) == journal_metrics(twin)

    def test_diffs_clean_against_the_same_search_at_v5(self, capsys):
        v5, v8 = (os.path.join(FIXTURES, f"v{v}.jsonl") for v in (5, 8))
        assert main(["journal", "diff", v5, v8]) == 0
        assert journal_metrics(fixture_records(5)) == journal_metrics(
            fixture_records(8)
        )

    def test_a_pre_v8_validator_names_the_version(self, monkeypatch):
        from repro.obs import schema

        monkeypatch.setattr(
            schema, "SUPPORTED_VERSIONS", (1, 2, 3, 4, 5, 6, 7)
        )
        errors = validate_journal(fixture_records(8))
        assert errors and all(
            "unsupported schema version 8" in error for error in errors
        )


class TestEventJournalSurfaces:
    """v9-specific: the v8 search, less what no reader read."""

    def test_records_are_v8s_less_the_metrics_dumps(self):
        v8, v9 = fixture_records(8), fixture_records(9)
        assert [
            {k: v for k, v in record.items() if k not in ("v", "metrics")}
            for record in v8
        ] == [{k: v for k, v in r.items() if k != "v"} for r in v9]
        assert not [r for r in v9 if "metrics" in r or r["t"] == "coverage"]

    def test_reads_exactly_like_v8(self, capsys):
        v8, v9 = fixture_records(8), fixture_records(9)
        assert reports_from_records(v9) == reports_from_records(v8)
        assert journal_metrics(v9) == journal_metrics(v8)
        paths = [os.path.join(FIXTURES, f"v{v}.jsonl") for v in (8, 9)]
        assert main(["journal", "diff", *paths]) == 0


class TestPreTelemetryReaderSkipsWithNote:
    """A pre-v7 reader sees ``heartbeat`` as an unknown record kind."""

    def test_skip_is_noted_and_reads_still_work(self, monkeypatch):
        from repro.obs import schema

        monkeypatch.delitem(schema.RECORD_FIELDS, "heartbeat")
        records = fixture_records(7)
        assert describe_unknown_kinds(records) == [
            "unknown record kind skipped: heartbeat (n=2)"
        ]
        reports = reports_from_records(records)
        assert len(reports) == 2
        assert diff_journals(records, records).ok


class TestPreIsolationReaderSkipsWithNote:
    """A pre-v6 reader sees ``isolation`` as an unknown record kind.

    Simulated the way the repo's other old-reader tests do: the
    ``isolation`` entry is removed from the live schema table, so every
    skipping surface (report, stats, journal diff, canary check) flows
    through :meth:`RecordCounts.unknown_notes` and says what it dropped.
    """

    def test_skip_is_noted_and_reads_still_work(self, monkeypatch):
        from repro.obs import schema

        monkeypatch.delitem(schema.RECORD_FIELDS, "isolation")
        records = fixture_records(6)
        assert describe_unknown_kinds(records) == [
            "unknown record kind skipped: isolation (n=1)"
        ]
        # The rest of the journal keeps reading: reports reconstruct
        # and a self-diff is exactly clean.
        reports = reports_from_records(records)
        assert len(reports) == 1
        assert len(reports[0].anomalies) >= 1
        assert diff_journals(records, records).ok

    def test_journal_diff_cli_warns(self, monkeypatch, capsys):
        from repro.obs import schema

        monkeypatch.delitem(schema.RECORD_FIELDS, "isolation")
        path = os.path.join(FIXTURES, "v6.jsonl")
        assert main(["journal", "diff", path, path]) == 0
        err = capsys.readouterr().err
        assert "unknown record kind skipped: isolation (n=1)" in err


class TestVersionStampProperty:
    @given(
        stamps=st.lists(
            st.sampled_from(SUPPORTED_VERSIONS), min_size=1, max_size=10
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_supported_stamp_mix_stays_valid(self, stamps):
        """Record versions are independent: any supported mix, each
        record in its stamp's shape, validates and reconstructs
        identically (readers key on record *type*, and on ``v`` for the
        shape)."""
        records = fixture_records(1)
        stamped = []
        for index, record in enumerate(records):
            stamp = stamps[index % len(stamps)]
            stamped.append(
                as_positional(record, stamp) if stamp >= 8
                else {**record, "v": stamp}
            )
        assert validate_journal(stamped) == []
        baseline = journal_metrics(records)
        restamped = journal_metrics(stamped)
        assert restamped == baseline
        assert reports_from_records(stamped) == reports_from_records(records)

    @given(version=st.integers(min_value=-3, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_unsupported_versions_are_rejected(self, version):
        records = fixture_records(1)[:3]
        if version in SUPPORTED_VERSIONS:
            return
        stamped = [{**record, "v": version} for record in records]
        errors = validate_journal(stamped)
        assert errors and "unsupported schema version" in errors[0]
