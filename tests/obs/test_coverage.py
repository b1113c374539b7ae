"""Workload-space coverage: bucketing, tracking, journal round-trip."""

import numpy as np
import pytest

from repro.core import Collie
from repro.core.space import (
    DIMENSION_GROUPS,
    SearchSpace,
    changed_dimensions,
)
from repro.obs import (
    CoverageTracker,
    FlightRecorder,
    RunJournal,
    coverage_from_records,
    read_journal,
    render_latency_panel,
)
from repro.obs.folds import Latency, run_folds
from repro.obs.schema import validate_record

BUDGET_HOURS = 0.5
SEED = 2


class TestBucketing:
    def setup_method(self):
        self.space = SearchSpace()

    def test_groups_cover_every_searched_dimension(self):
        flattened = self.space.coverage_dimensions()
        assert len(flattened) == len(set(flattened))
        for dimensions in DIMENSION_GROUPS.values():
            for dimension in dimensions:
                assert dimension in flattened

    def test_every_dimension_has_buckets(self):
        for dimension in self.space.coverage_dimensions():
            buckets = self.space.dimension_buckets(dimension)
            assert len(buckets) >= 1

    def test_random_points_bucket_onto_known_values(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            workload = self.space.random(rng)
            buckets = self.space.point_buckets(workload)
            for dimension, value in buckets.items():
                assert value in self.space.dimension_buckets(dimension)

    def test_bucket_value_picks_the_point_ladder_rung(self):
        rng = np.random.default_rng(1)
        workload = self.space.random(rng)
        assert self.space.bucket_value("num_qps", workload) == workload.num_qps


class TestChangedDimensions:
    def test_identical_points_change_nothing(self):
        space = SearchSpace()
        workload = space.random(np.random.default_rng(0))
        assert changed_dimensions(workload, workload) == ()

    def test_mutations_report_valid_dimension_labels(self):
        from repro.core.space import (
            CATEGORICAL_DIMENSIONS,
            ORDERED_DIMENSIONS,
            PATTERN_DIMENSION,
        )

        valid = set(ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS)
        valid.add(PATTERN_DIMENSION)
        space = SearchSpace()
        rng = np.random.default_rng(3)
        current = space.random(rng)
        moved = 0
        for _ in range(20):
            candidate = space.mutate(current, rng)
            changed = changed_dimensions(current, candidate)
            moved += bool(changed)
            for name in changed:
                assert name in valid
            current = candidate
        # A mutation may occasionally resample the same value, but a
        # run of 20 must move the point most of the time.
        assert moved >= 10


class TestTracker:
    def test_visits_accumulate(self):
        space = SearchSpace()
        tracker = CoverageTracker(space)
        rng = np.random.default_rng(0)
        points = [space.random(rng) for _ in range(25)]
        for point in points:
            tracker.visit(point)
        assert tracker.experiments == 25
        assert tracker.unique_points <= 25
        assert 0.0 < tracker.touched_fraction() <= 1.0

    def test_skips_count_without_experiments(self):
        tracker = CoverageTracker(SearchSpace())
        tracker.skip(None)
        assert tracker.skips == 1
        assert tracker.experiments == 0

    def test_as_record_validates_under_schema(self):
        space = SearchSpace()
        tracker = CoverageTracker(space)
        tracker.visit(space.random(np.random.default_rng(0)))
        record = dict(tracker.as_record(12.5), v=3)
        assert validate_record(record, 0) == []

    def test_render_mentions_every_group(self):
        space = SearchSpace()
        tracker = CoverageTracker(space)
        tracker.visit(space.random(np.random.default_rng(0)))
        text = tracker.render()
        for group in DIMENSION_GROUPS:
            assert group in text
        assert "touched" in text

    def test_for_subsystem_accepts_unknown_letter(self):
        tracker = CoverageTracker.for_subsystem("not-a-letter")
        assert tracker.dimensions


class TestJournalRoundTrip:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("coverage") / "run.jsonl"
        recorder = FlightRecorder(
            journal=RunJournal(path), track_coverage=True
        )
        Collie.for_subsystem(
            "H", budget_hours=BUDGET_HOURS, seed=SEED, recorder=recorder
        ).run()
        live = recorder.coverage
        recorder.close()
        return live, path

    def test_live_and_posthoc_coverage_agree(self, recorded):
        live, path = recorded
        trackers = coverage_from_records(read_journal(path))
        assert len(trackers) == 1
        posthoc = trackers[0]
        assert posthoc.experiments == live.experiments
        assert posthoc.skips == live.skips
        assert posthoc.unique_points == live.unique_points
        assert posthoc.summary() == live.summary()

    def test_journal_contains_coverage_records(self, recorded):
        _, path = recorded
        kinds = [r["t"] for r in read_journal(path)]
        assert "coverage" in kinds


class TestLatencyPanel:
    def _latency(self, p99, inflation=1.0, tags=()):
        return {
            "t": "latency", "time_seconds": 0.0, "p50_us": 1.0,
            "p90_us": 2.0, "p99_us": p99, "mean_us": 1.0,
            "baseline_us": 1.0, "inflation": inflation,
            "components": {}, "tags": list(tags),
        }

    def test_none_without_latency_records(self):
        records = [{"t": "experiment", "symptom": "healthy"}]
        assert render_latency_panel(records) is None
        assert render_latency_panel([]) is None

    def test_buckets_summary_and_quirk_count(self):
        records = [
            self._latency(3.0),
            self._latency(42.0),
            self._latency(55.0, inflation=6.5, tags=("L1",)),
            self._latency(2500.0),
        ]
        panel = render_latency_panel(records)
        assert "4 latency records" in panel
        assert "<10us" in panel and "10-100us" in panel
        assert "1-10ms" in panel
        assert ">=10ms" not in panel  # empty buckets are skipped
        assert "worst inflation 6.50x" in panel
        assert "1 experiment(s) with a fired latency quirk" in panel

    def test_even_count_median_is_the_journal_metrics_median(self):
        records = [self._latency(1.0), self._latency(3.0)]
        assert "median p99 2.0 us" in render_latency_panel(records)
        (latency,) = run_folds(records, Latency())
        assert latency.result()["latency_p99_us_median"] == 2.0

    def test_panel_reads_a_real_latency_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        Collie.for_subsystem(
            "F", budget_hours=0.5, seed=2, recorder=recorder
        ).run()
        recorder.close()
        panel = render_latency_panel(read_journal(path))
        assert panel is not None
        assert "median p99" in panel
