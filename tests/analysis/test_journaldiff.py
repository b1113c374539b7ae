"""Cross-run regression diffing and the observatory CLI surfaces."""

import json

import pytest

from repro.analysis.journaldiff import (
    DEFAULT_TOLERANCE,
    diff_journals,
    journal_metrics,
    render_diff,
)
from repro.cli import main
from repro.obs import read_journal
from repro.obs.folds import Latency, RecordCounts, run_folds


def unknown_record_kinds(records):
    return run_folds(records, RecordCounts())[0].unknown_kinds()


def describe_unknown_kinds(records):
    return run_folds(records, RecordCounts())[0].unknown_notes()


def latency_metrics(records):
    return run_folds(records, Latency())[0].result()

BUDGET_HOURS = 1.0
SEED = 2


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    """One fully observed search journal (coverage + spans + SA)."""
    path = tmp_path_factory.mktemp("diff") / "run.jsonl"
    code = main([
        "search", "H", "--hours", str(BUDGET_HOURS), "--seed", str(SEED),
        "--journal", str(path), "--coverage", "--profile",
    ])
    assert code == 0
    return path


def doctor(records, *, drop_anomalies=False, slow_ttfa=False):
    """A tampered copy of a journal's records."""
    doctored = []
    first_anomalous_seen = False
    for record in records:
        record = dict(record)
        if drop_anomalies:
            if record["t"] == "anomaly":
                continue
            if record["t"] == "run_end":
                record["anomalies"] = 0
            if record["t"] == "experiment":
                record["symptom"] = "healthy"
        if slow_ttfa and record["t"] == "experiment":
            if record["symptom"] != "healthy" and not first_anomalous_seen:
                first_anomalous_seen = True
                record["time_seconds"] = record["time_seconds"] * 2.0
        doctored.append(record)
    return doctored


class TestDiffJournals:
    def test_self_diff_is_clean(self, journal_path):
        records = read_journal(journal_path)
        result = diff_journals(records, records)
        assert result.ok
        assert result.regressions == []
        for entry in result.entries:
            if entry.gated:
                assert entry.baseline == entry.candidate

    def test_dropped_anomaly_regresses(self, journal_path):
        records = read_journal(journal_path)
        result = diff_journals(records, doctor(records, drop_anomalies=True))
        assert not result.ok
        assert "anomalies" in [e.metric for e in result.regressions]

    def test_slower_ttfa_regresses(self, journal_path):
        records = read_journal(journal_path)
        result = diff_journals(records, doctor(records, slow_ttfa=True))
        assert not result.ok
        regressed = [e.metric for e in result.regressions]
        assert "time_to_first_anomaly_seconds" in regressed

    def test_tolerance_forgives_small_drift(self, journal_path):
        records = read_journal(journal_path)
        candidate = []
        for record in records:
            record = dict(record)
            if record["t"] == "experiment":
                record["time_seconds"] = record["time_seconds"] * 1.01
            candidate.append(record)
        result = diff_journals(records, candidate, tolerance=0.05)
        ttfa = [
            e for e in result.entries
            if e.metric == "time_to_first_anomaly_seconds"
        ][0]
        assert not ttfa.regressed

    def test_metrics_report_the_run_shape(self, journal_path):
        records = read_journal(journal_path)
        metrics = journal_metrics(records)
        assert metrics["anomalies"] >= 1
        assert metrics["experiments"] > 0
        assert 0.0 < metrics["coverage_fraction"] <= 1.0
        assert metrics["time_to_first_anomaly_seconds"] is not None
        assert metrics["span_self_seconds"]

    def test_render_names_the_verdict(self, journal_path):
        records = read_journal(journal_path)
        clean = render_diff(diff_journals(records, records))
        assert "no regressions" in clean
        broken = render_diff(
            diff_journals(records, doctor(records, drop_anomalies=True))
        )
        assert "REGRESSION" in broken and "anomalies" in broken
        assert DEFAULT_TOLERANCE == 0.05


class TestUnknownKinds:
    def test_known_kinds_pass_silently(self, journal_path):
        records = read_journal(journal_path)
        assert unknown_record_kinds(records) == {}
        assert describe_unknown_kinds(records) == []

    def test_unknown_kinds_counted_and_described(self):
        records = [
            {"t": "experiment", "symptom": "healthy"},
            {"t": "flux_capacitor"},
            {"t": "flux_capacitor"},
            {"t": "gc_pause"},
        ]
        assert unknown_record_kinds(records) == {
            "flux_capacitor": 2, "gc_pause": 1,
        }
        assert describe_unknown_kinds(records) == [
            "unknown record kind skipped: flux_capacitor (n=2)",
            "unknown record kind skipped: gc_pause (n=1)",
        ]


class TestLatencyMetrics:
    def _latency(self, p99, inflation):
        return {
            "t": "latency", "time_seconds": 0.0, "p50_us": 1.0,
            "p90_us": 2.0, "p99_us": p99, "mean_us": 1.0,
            "baseline_us": 1.0, "inflation": inflation,
            "components": {}, "tags": [],
        }

    def test_absent_stream_reports_none(self):
        metrics = latency_metrics([{"t": "experiment"}])
        assert metrics == {
            "latency_records": 0,
            "latency_p99_us_median": None,
            "latency_inflation_max": None,
        }

    def test_median_and_worst_inflation(self):
        records = [
            self._latency(10.0, 1.0),
            self._latency(30.0, 5.5),
            self._latency(20.0, 2.0),
        ]
        metrics = latency_metrics(records)
        assert metrics["latency_records"] == 3
        assert metrics["latency_p99_us_median"] == 20.0
        assert metrics["latency_inflation_max"] == 5.5

    def test_journal_metrics_carry_the_latency_family(self, journal_path):
        metrics = journal_metrics(read_journal(journal_path))
        assert metrics["latency_records"] > 0
        assert metrics["latency_p99_us_median"] is not None
        assert metrics["latency_inflation_max"] is not None


class TestDiffCLI:
    def test_self_diff_exits_zero(self, journal_path, capsys):
        code = main([
            "journal", "diff", str(journal_path), str(journal_path),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_doctored_journal_exits_nonzero(
        self, journal_path, tmp_path, capsys
    ):
        doctored_path = tmp_path / "doctored.jsonl"
        with open(doctored_path, "w") as handle:
            for record in doctor(
                read_journal(journal_path), drop_anomalies=True
            ):
                handle.write(json.dumps(record) + "\n")
        code = main([
            "journal", "diff", str(journal_path), str(doctored_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "anomalies" in out

    def test_unreadable_journal_exits_two(self, journal_path, tmp_path):
        missing = tmp_path / "missing.jsonl"
        code = main(["journal", "diff", str(journal_path), str(missing)])
        assert code == 2

    @pytest.mark.parametrize("empty_side", ("baseline", "candidate"))
    def test_empty_journal_exits_two(
        self, journal_path, tmp_path, empty_side, capsys
    ):
        """A zero-record journal is unreadable input, not a clean diff.

        Regression: an empty *candidate* used to produce bogus -100%
        regressions (exit 1), and an empty *baseline* a silent
        'no regressions' pass (exit 0) — the dangerous ordering.
        """
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        order = (
            [str(empty), str(journal_path)]
            if empty_side == "baseline"
            else [str(journal_path), str(empty)]
        )
        code = main(["journal", "diff", *order])
        assert code == 2
        err = capsys.readouterr().err
        assert "no records" in err and str(empty) in err

    @pytest.mark.parametrize("empty_side", ("baseline", "candidate"))
    def test_truncated_to_zero_records_exits_two(
        self, journal_path, tmp_path, empty_side
    ):
        """A journal torn mid-first-line parses to zero records."""
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"v": 3, "t": "run_sta')  # no newline: torn tail
        order = (
            [str(torn), str(journal_path)]
            if empty_side == "baseline"
            else [str(journal_path), str(torn)]
        )
        assert main(["journal", "diff", *order]) == 2

    def test_tolerance_flag_parses(self, journal_path, capsys):
        code = main([
            "journal", "diff", str(journal_path), str(journal_path),
            "--baseline-tolerance", "0.2",
        ])
        assert code == 0
        assert "20%" in capsys.readouterr().out


class TestObservatoryCLI:
    def test_report_json_is_machine_readable(self, journal_path, capsys):
        code = main(["report", str(journal_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["runs"] == 1
        assert payload["metrics"]["anomalies"] >= 1
        assert payload["runs"][0]["subsystem"] == "H"

    def test_coverage_command_renders_tables(self, journal_path, capsys):
        code = main(["coverage", str(journal_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload-space coverage" in out
        assert "touched" in out

    def test_profile_command_exports_a_valid_trace(
        self, journal_path, tmp_path, capsys
    ):
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        code = main([
            "profile", str(journal_path), "--trace-out", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "account for 100.0%" in out
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_profile_without_spans_warns(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        code = main([
            "search", "H", "--hours", "0.3", "--seed", "3",
            "--journal", str(path),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["profile", str(path)]) == 1
