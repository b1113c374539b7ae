"""The live telemetry plane: heartbeats, aggregation, export, dashboard.

The plane's one non-negotiable invariant is tested here end to end: a
campaign observed by the follower/aggregator/exporter stack produces a
journal *bit-identical* (in canonical form, heartbeat records excluded)
to an unobserved run — telemetry reads, it never steers.
"""

import gzip
import json
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.campaign import run_campaign
from repro.analysis.journaldiff import journal_metrics
from repro.canary.corpus import canonical_journal_bytes
from repro.cli import main
from repro.core import Collie
from repro.obs import (
    CampaignAggregator,
    FlightRecorder,
    RunJournal,
    TelemetryServer,
    journal_summary,
    load_baseline_metrics,
    per_chain_diagnostics,
    read_journal,
    render_dashboard,
    render_prometheus,
    validate_journal,
)
from tests.test_report_stream import FLAT_BYTES_PER_RECORD, synthetic_run

BUDGET_HOURS = 0.3
SEEDS = (1, 2)


def run_recorded_campaign(path, heartbeats=False, progress_every=0):
    recorder = FlightRecorder(
        journal=RunJournal(path),
        heartbeats=heartbeats,
        progress_every=progress_every,
    )
    result = run_campaign(
        "collie", subsystem="F", seeds=SEEDS, budget_hours=BUDGET_HOURS,
        workers=2, recorder=recorder,
    )
    recorder.close()
    return result


@pytest.fixture(scope="module")
def campaign_journals(tmp_path_factory):
    """(bare path, telemetered path): same campaign, with/without beats."""
    base = tmp_path_factory.mktemp("telemetry")
    bare = base / "bare.jsonl"
    telem = base / "telem.jsonl"
    run_recorded_campaign(bare, heartbeats=False)
    run_recorded_campaign(telem, heartbeats=True)
    return bare, telem


class TestHeartbeats:
    def test_bare_run_writes_no_heartbeats(self, campaign_journals):
        bare, _ = campaign_journals
        assert journal_summary(read_journal(bare))["heartbeats"] == 0

    def test_telemetered_run_heartbeats_validate(self, campaign_journals):
        _, telem = campaign_journals
        records = read_journal(telem)
        beats = [r for r in records if r["t"] == "heartbeat"]
        assert len(beats) == len(SEEDS)
        assert validate_journal(records) == []
        # Deterministic worker slots: task order, round-robin.
        assert [b["worker"] for b in beats] == [0, 1]
        assert [b["done"] for b in beats] == [1, 2]
        assert all(b["total"] == len(SEEDS) for b in beats)

    def test_observed_run_is_canonically_bit_identical(
        self, campaign_journals
    ):
        """The acceptance invariant: heartbeats are the only difference,
        and canonical form (wall clock neutralized) erases even that."""
        bare, telem = campaign_journals
        assert canonical_journal_bytes(
            read_journal(bare)
        ) == canonical_journal_bytes(read_journal(telem))

    def test_heartbeat_off_recorder_ignores_calls(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        recorder.heartbeat(0, 1, 2)
        recorder.close()
        assert read_journal(path) == []


class TestAggregator:
    def test_rollup_agrees_with_post_hoc_metrics(self, campaign_journals):
        _, telem = campaign_journals
        agg = CampaignAggregator([telem])
        agg.refresh()
        snap = agg.snapshot(now=0.0)
        expected = journal_metrics(read_journal(telem))
        totals = snap["totals"]
        assert totals["experiments"] == expected["experiments"]
        assert totals["anomalies"] == expected["anomalies"]
        assert totals["time_to_first_anomaly_seconds"] == (
            expected["time_to_first_anomaly_seconds"]
        )
        assert totals["coverage_fraction"] == expected["coverage_fraction"]
        assert totals["runs"] == len(SEEDS)
        assert totals["complete_runs"] == len(SEEDS)

    def test_liveness_classification(self, campaign_journals):
        _, telem = campaign_journals
        agg = CampaignAggregator([telem], stale_after=30.0)
        agg.refresh()
        beats = [r for r in read_journal(telem) if r["t"] == "heartbeat"]
        latest = max(b["wall_time"] for b in beats)
        fresh = agg.snapshot(now=latest + 1.0)
        assert fresh["totals"]["workers_alive"] == 2
        stale = agg.snapshot(now=latest + 31.0)
        assert stale["totals"]["workers_alive"] == 0
        assert stale["totals"]["workers_total"] == 2
        assert all(not row["alive"] for row in stale["workers"])

    def test_incremental_refresh_matches_one_shot(
        self, tmp_path, campaign_journals
    ):
        """Folding a journal in torn chunks equals folding it at once."""
        _, telem = campaign_journals
        data = telem.read_bytes()
        partial = tmp_path / "partial.jsonl"
        incremental = CampaignAggregator([partial])
        step = max(1, len(data) // 7)  # deliberately tears lines
        for end in range(step, len(data) + step, step):
            partial.write_bytes(data[:end])
            incremental.refresh()
        one_shot = CampaignAggregator([telem])
        one_shot.refresh()
        a, b = incremental.snapshot(now=0.0), one_shot.snapshot(now=0.0)
        a["sources"][0]["path"] = b["sources"][0]["path"] = "x"
        for row in a["workers"] + b["workers"] + list(a["timeline"]) + list(
            b["timeline"]
        ):
            row.pop("source", None)
        assert a == b

    def test_population_torn_chunks_equal_post_hoc_folds(self, tmp_path):
        """Live == post-hoc on a chain-stamped journal, while the
        aggregator holds no more than the last poll's records."""
        journal = tmp_path / "population.jsonl"
        assert main([
            "search", "H", "--hours", "1", "--seed", "2", "--chains", "3",
            "--journal", str(journal),
        ]) == 0
        data = journal.read_bytes()
        partial = tmp_path / "partial.jsonl"
        agg = CampaignAggregator([partial])
        (source,) = agg.sources
        step = max(1, len(data) // 11)  # deliberately tears lines
        for end in range(step, len(data) + step, step):
            partial.write_bytes(data[:end])
            fresh = agg.refresh()
            assert len(source.records) == fresh
        records = read_journal(journal)
        expected = journal_metrics(records)
        live = agg.snapshot(now=0.0)["sources"][0]
        assert live["records"] == len(records)
        for key in (
            "experiments", "anomalies", "skips",
            "time_to_first_anomaly_seconds", "coverage_fraction",
            "acceptance_rate", "latency_p99_us_median",
        ):
            assert live[key] == expected[key], key
        assert [diag for _, diag in agg.chain_diagnostics()] == (
            per_chain_diagnostics(records)
        )
        assert {diag.chain for _, diag in agg.chain_diagnostics()} == {
            0, 1, 2,
        }
        agg.refresh()
        assert source.records == []

    def test_two_sources_roll_up_as_one(self, campaign_journals):
        """The same campaign journaled twice: counts double, and the
        minimum TTFA and the merged p99 histogram stay put."""
        bare, telem = campaign_journals
        one = CampaignAggregator([telem])
        two = CampaignAggregator([bare, telem])
        one.refresh()
        two.refresh()
        single = one.snapshot(now=0.0)["totals"]
        double = two.snapshot(now=0.0)["totals"]
        assert single["latency_records"] > 0
        for key in ("experiments", "anomalies", "runs", "latency_records"):
            assert double[key] == 2 * single[key], key
        for key in ("time_to_first_anomaly_seconds", "coverage_fraction"):
            assert double[key] == single[key], key
        assert double["latency_p99_us"] == pytest.approx(
            single["latency_p99_us"]
        )

    def test_corrupt_source_reports_error_not_crash(
        self, tmp_path, campaign_journals
    ):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"v":7,"t":"run_start"}\ngarbage\n')
        agg = CampaignAggregator([path])
        agg.refresh()
        snap = agg.snapshot(now=0.0)
        assert "corrupt journal line" in snap["sources"][0]["error"]
        # Valid JSON but not a valid record (a run_start without its
        # subsystem, after a blank line): the row names the line, that
        # source folds nothing more, and the other source keeps going.
        _, telem = campaign_journals
        lines = Path(telem).read_bytes().splitlines(keepends=True)
        good = tmp_path / "good.jsonl"
        good.write_bytes(b"".join(lines[:10]))
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_bytes(
            b'{"v":7,"t":"heartbeat","worker":0,"done":0,"total":1,'
            b'"wall_time":0.0}\n\n{"v":7,"t":"run_start"}\n'
        )
        agg = CampaignAggregator([malformed, good])
        agg.refresh()
        bad_row, good_row = agg.snapshot(now=0.0)["sources"]
        assert bad_row["error"] == (
            f"{malformed}: line 3: malformed 'run_start' record: "
            f"KeyError: 'subsystem'"
        )
        assert bad_row["records"] == 2
        with open(malformed, "ab") as handle:
            handle.write(b"".join(lines))
        with open(good, "ab") as handle:
            handle.write(b"".join(lines[10:]))
        assert agg.refresh() == len(lines) - 10
        bad_row, good_row = agg.snapshot(now=0.0)["sources"]
        assert bad_row["records"] == 2
        assert good_row["records"] == len(lines)
        assert good_row["error"] is None


def follow_in_chunks(lines: list, path: Path, chunk: int = 100):
    """Append ``lines`` to ``path`` ``chunk`` at a time, refreshing one
    aggregator after each chunk; returns the aggregator."""
    aggregator = CampaignAggregator([path])
    with open(path, "wb") as sink:
        for offset in range(0, len(lines), chunk):
            sink.write(b"".join(lines[offset:offset + chunk]))
            sink.flush()
            aggregator.refresh()
    return aggregator


class TestAggregatorFlatMemory:
    """Following a journal live holds fold state, not records: peak
    memory grows by a few floats per record however long the run."""

    @pytest.mark.parametrize("fixture", ("v7.jsonl", "v8.jsonl"))
    def test_peak_grows_by_a_few_floats_per_record(self, fixture, tmp_path):
        small, large = 1500, 6000
        peaks = {}
        for records in (small, large):
            source = tmp_path / f"{records}.source.jsonl"
            synthetic_run(source, records, fixture)
            lines = source.read_bytes().splitlines(keepends=True)
            path = tmp_path / f"{records}.jsonl"
            if records == small:  # imports and caches: not per record
                follow_in_chunks(lines, tmp_path / "warm.jsonl")
            tracemalloc.start()
            try:
                aggregator = follow_in_chunks(lines, path)
                peaks[records] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            totals = aggregator.snapshot(now=0.0)["totals"]
            assert totals["records"] == len(lines)
            assert totals["complete_runs"] == 1
        growth = (peaks[large] - peaks[small]) / (large - small)
        assert growth < FLAT_BYTES_PER_RECORD, f"{growth:.0f} B per record"


class TestPrometheusRendering:
    def test_campaign_rollups_and_worker_liveness(self, campaign_journals):
        _, telem = campaign_journals
        agg = CampaignAggregator([telem])
        agg.refresh()
        text = render_prometheus({}, agg.snapshot(now=0.0))
        assert "# TYPE repro_campaign_experiments_total counter" in text
        assert "repro_campaign_anomalies_total" in text
        assert "repro_campaign_ttfa_seconds" in text
        assert 'repro_worker_up{source="' in text
        assert 'worker="0"' in text and 'worker="1"' in text

    def test_unknown_totals_are_omitted_not_zeroed(self):
        """An empty aggregate renders no campaign series at all: absent
        data must not masquerade as a zero measurement."""
        assert render_prometheus({}, {"totals": {}, "workers": []}) == ""


class TestTelemetryServer:
    def test_scrape_metrics_and_status_over_http(self, campaign_journals):
        _, telem = campaign_journals
        aggregator = CampaignAggregator([telem])
        server = TelemetryServer(aggregator=aggregator).start()
        try:
            with urllib.request.urlopen(server.url("/metrics")) as resp:
                assert resp.status == 200
                assert "text/plain" in resp.headers["Content-Type"]
                body = resp.read().decode()
            # /metrics is the aggregator's folds of the journal, only.
            experiments = aggregator.snapshot()["totals"]["experiments"]
            assert f"repro_campaign_experiments_total {experiments}" in body
            assert all(
                line.startswith(("# TYPE repro_campaign_",
                                 "# TYPE repro_worker_",
                                 "repro_campaign_", "repro_worker_"))
                for line in body.splitlines()
            )
            with urllib.request.urlopen(server.url("/status")) as resp:
                status = json.load(resp)
            assert status["totals"]["runs"] == len(SEEDS)
            assert len(status["workers"]) == 2
        finally:
            server.close()

    def test_unknown_path_is_404(self):
        server = TelemetryServer().start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url("/nope"))
            assert excinfo.value.code == 404
            excinfo.value.close()  # the error holds the response open
        finally:
            server.close()

    def test_ephemeral_port_is_reported(self):
        server = TelemetryServer(port=0)
        try:
            assert server.port > 0
            assert str(server.port) in server.url()
        finally:
            server.close()


class TestDashboard:
    def test_frame_renders_all_sections(self, campaign_journals):
        _, telem = campaign_journals
        agg = CampaignAggregator([telem])
        agg.refresh()
        frame = render_dashboard(
            agg.snapshot(now=0.0),
            chains=agg.chain_diagnostics(),
            baseline=load_baseline_metrics(telem),
            baseline_path=str(telem),
        )
        assert "repro top" in frame
        assert "workers (2/2 alive" in frame
        assert "anomaly timeline" in frame
        assert "drift vs" in frame
        # Self-drift is zero on every gated metric.
        assert frame.count("+0.0% =") == 3
        assert "\x1b" not in frame  # frames are escape-free; CLI adds CLEAR

    def test_empty_snapshot_renders(self):
        frame = render_dashboard({"totals": {}})
        assert "experiments" in frame


class TestGzipJournals:
    def test_read_journal_is_gzip_transparent(self, tmp_path):
        records = [{"v": 7, "t": "run_start", "approach": "collie",
                    "subsystem": "F", "budget_hours": 1.0, "seed": 1,
                    "config": {}}]
        plain = tmp_path / "run.jsonl"
        plain.write_text(json.dumps(records[0]) + "\n")
        zipped = tmp_path / "run.sneaky"  # magic bytes, not the suffix
        with gzip.open(zipped, "wt") as handle:
            handle.write(json.dumps(records[0]) + "\n")
        assert read_journal(plain) == records
        assert read_journal(zipped) == records

    def test_baseline_metrics_from_corpus_cell(self, tmp_path):
        """A committed canary corpus cell works directly as a baseline."""
        import glob

        cells = sorted(glob.glob("canary/corpus/*.jsonl.gz"))
        if not cells:
            pytest.skip("no committed corpus in this checkout")
        metrics = load_baseline_metrics(cells[0])
        assert metrics["experiments"] > 0


class TestFinalSnapshot:
    def run_search(self, tmp_path, progress_every):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(
            journal=RunJournal(path), progress_every=progress_every
        )
        report = Collie.for_subsystem(
            "H", budget_hours=BUDGET_HOURS, seed=2, recorder=recorder
        ).run()
        recorder.close()
        return report, read_journal(path)

    def test_final_snapshot_lands_at_run_end_totals(self, tmp_path):
        report, records = self.run_search(tmp_path, progress_every=7)
        snapshots = [r for r in records if r["t"] == "snapshot"]
        assert snapshots, "progress_every must journal snapshots"
        assert snapshots[-1]["experiments"] == report.experiments
        (run_end,) = (r for r in records if r["t"] == "run_end")
        assert snapshots[-1]["experiments"] == run_end["experiments"]

    def test_no_duplicate_when_totals_align(self, tmp_path):
        """If the last periodic snapshot already covers the final count,
        run_end must not write a second copy."""
        report, records = self.run_search(tmp_path, progress_every=1)
        snapshots = [r for r in records if r["t"] == "snapshot"]
        assert len(snapshots) == report.experiments

    def test_progress_off_writes_no_snapshots(self, tmp_path):
        _, records = self.run_search(tmp_path, progress_every=0)
        assert not [r for r in records if r["t"] == "snapshot"]
