"""Workload-space coverage: bucketing, tracking, journal round-trip."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Collie
from repro.core.space import (
    DIMENSION_GROUPS,
    SearchSpace,
    changed_dimensions,
)
from repro.hardware.workload import (
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType
from repro.obs import (
    CoverageTracker,
    FlightRecorder,
    RunJournal,
    coverage_from_records,
    read_journal,
    render_latency_panel,
)
from repro.obs.coverage import point_key
from repro.obs.folds import Latency, run_folds

BUDGET_HOURS = 1.0  # H seed 2: 158 experiments, 2 skips, 4 anomalies
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


class ReferenceCoverage:
    """The tracker's counts, bucketed the direct way: every point
    through ``space.point_buckets``, every fraction through a full
    per-dimension summary (no MFS is marked, so ``mfs_fraction`` is 0)."""

    def __init__(self, space):
        self.space = space
        self.dimensions = space.coverage_dimensions()
        self.buckets = {
            dimension: tuple(map(str, space.dimension_buckets(dimension)))
            for dimension in self.dimensions
        }
        self.visited = {dimension: {} for dimension in self.dimensions}
        self.skipped = {dimension: {} for dimension in self.dimensions}
        self.experiments = 0
        self.skips = 0
        self.points = set()

    def _count(self, workload, histograms):
        for dimension, value in self.space.point_buckets(workload).items():
            label = str(value)
            histograms[dimension][label] = (
                histograms[dimension].get(label, 0) + 1
            )

    def visit(self, workload):
        self.experiments += 1
        self.points.add(workload)
        self._count(workload, self.visited)

    def skip(self, workload=None):
        self.skips += 1
        if workload is not None:
            self._count(workload, self.skipped)

    def dimension_summary(self, dimension):
        labels = self.buckets[dimension]
        visited = self.visited[dimension]
        skipped = self.skipped[dimension]
        touched = sum(1 for label in labels if visited.get(label))
        return {
            "buckets": len(labels),
            "visited_buckets": touched,
            "fraction": touched / len(labels) if labels else 0.0,
            "mfs_fraction": 0.0,
            "visits": {
                label: visited[label] for label in labels
                if visited.get(label)
            },
            "skips": {
                label: skipped[label] for label in labels
                if skipped.get(label)
            },
        }

    def fraction(self):
        fractions = [
            self.dimension_summary(dimension)["fraction"]
            for dimension in self.dimensions
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0

    def summary(self):
        return {
            "experiments": self.experiments,
            "skips": self.skips,
            "unique_points": len(self.points),
            "fraction": self.fraction(),
            "dimensions": {
                dimension: self.dimension_summary(dimension)
                for dimension in self.dimensions
            },
        }


#: A–H, the §8 duty-cycle space, a UD-only space and a reduced ladder.
ORACLE_SPACES = (
    *(SearchSpace.for_subsystem(letter) for letter in "ABCDEFGH"),
    SearchSpace(duty_cycles=(0.25, 0.5, 1.0)),
    SearchSpace.for_subsystem(
        "F", qp_types=(QPType.UD,), opcodes=(Opcode.SEND,)
    ),
    SearchSpace(
        mtus=(1024, 4096), qps_choices=(1, 64, 4096), batch_choices=(1, 16),
        wq_depth_choices=(64, 1024), msg_size_choices=(64, 4096, 262144),
        mrs_per_qp_choices=(1, 32), mr_bytes_choices=(65536,),
        duty_cycles=(0.5, 1.0),
    ),
)

#: Valid descriptor values off every ladder and outside every space's
#: device and transport choices.
OFF_LADDER = {
    "qp_type": st.sampled_from(tuple(QPType)),
    "opcode": st.sampled_from(tuple(Opcode)),
    "direction": st.sampled_from(tuple(Direction)),
    "colocation": st.sampled_from(tuple(Colocation)),
    "sg_layout": st.sampled_from(tuple(SGLayout)),
    "src_device": st.sampled_from(("numa0", "numa1", "gpu0", "ssd0")),
    "dst_device": st.sampled_from(("numa0", "numa1", "gpu0", "ssd0")),
    "mtu": st.sampled_from((256, 512, 1024, 2048, 4096)),
    "num_qps": st.integers(1, 20_000),
    "wqe_batch": st.integers(1, 256),
    "sge_per_wqe": st.integers(1, 16),
    "wq_depth": st.integers(1, 8192),
    "mrs_per_qp": st.integers(1, 4096),
    "mr_bytes": st.integers(1, 1 << 23),
    "duty_cycle": st.one_of(st.just(1), st.floats(0.01, 1.0)),
    "msg_sizes_bytes": st.lists(
        st.integers(1, 1 << 22), min_size=1, max_size=8
    ).map(tuple),
}


@st.composite
def off_ladder(draw, point):
    """``point`` with some fields moved off the ladders, kept valid."""
    fields = draw(st.sets(st.sampled_from(sorted(OFF_LADDER)), min_size=1))
    raw = {
        field.name: getattr(point, field.name)
        for field in dataclasses.fields(point)
    }
    raw.update({field: draw(OFF_LADDER[field]) for field in sorted(fields)})
    if raw["opcode"] not in SUPPORTED_OPCODES[raw["qp_type"]]:
        raw["opcode"] = Opcode.SEND
    if raw["qp_type"] is QPType.UD:
        raw["msg_sizes_bytes"] = tuple(
            min(size, raw["mtu"]) for size in raw["msg_sizes_bytes"]
        )
    return WorkloadDescriptor(**raw)


@st.composite
def coverage_programs(draw):
    """A space and 1–60 ``(visit | skip | skip-none, point)`` steps over
    random draws, mutation walks and off-ladder points."""
    space = draw(st.sampled_from(ORACLE_SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = space.random(rng)
    steps = []
    for _ in range(draw(st.integers(1, 60))):
        source = draw(st.sampled_from(("random", "mutate", "off-ladder")))
        if source == "random":
            point = space.random(rng)
        elif source == "mutate":
            point = space.mutate(point, rng)
        else:
            point = draw(off_ladder(point))
        steps.append((draw(st.sampled_from(("visit", "skip", "skip-none"))),
                      point))
    return space, steps


class TestLabelMemoOracle:
    """The tracker's once-per-value label tables against direct
    bucketing of every point."""

    @given(coverage_programs())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_fraction_equal_direct_bucketing(self, program):
        space, steps = program
        tracker, reference = CoverageTracker(space), ReferenceCoverage(space)
        for operation, point in steps:
            for target in (tracker, reference):
                if operation == "visit":
                    target.visit(point)
                else:
                    target.skip(point if operation == "skip" else None)
        assert tracker.visited == reference.visited
        assert tracker.skipped == reference.skipped
        assert tracker.experiments == reference.experiments
        assert tracker.skips == reference.skips
        assert tracker.unique_points == len(reference.points)
        assert tracker.summary() == reference.summary()
        assert repr(tracker.touched_fraction()) == repr(reference.fraction())


class TestPointKey:
    """``unique_points`` counts one short key per distinct point."""

    BASE = WorkloadDescriptor()

    @pytest.mark.parametrize("changes", [
        {"duty_cycle": 1}, {"mtu": 1024.0}, {"msg_sizes_bytes": (65536.0,)},
        {"num_qps": 8.0, "duty_cycle": 1.0},
    ])
    def test_equal_descriptors_share_a_key(self, changes):
        other = dataclasses.replace(self.BASE, **changes)
        assert other == self.BASE
        assert point_key(other) == point_key(self.BASE)

    @pytest.mark.parametrize("changes", [
        {"duty_cycle": 0.5}, {"src_device": "numa1"}, {"num_qps": 9},
        {"msg_sizes_bytes": (65536, 65536)}, {"qp_type": QPType.UC},
        {"sg_layout": SGLayout.MIXED}, {"mr_bytes": 65537.5},
    ])
    def test_different_descriptors_differ(self, changes):
        other = dataclasses.replace(self.BASE, **changes)
        assert other != self.BASE
        assert point_key(other) != point_key(self.BASE)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_keys_equal_exactly_when_descriptors_are(self, data):
        point = SearchSpace().random(np.random.default_rng(0))
        first = data.draw(off_ladder(point))
        second = data.draw(st.sampled_from((first, point))) if data.draw(
            st.booleans()
        ) else data.draw(off_ladder(first))
        assert (point_key(first) == point_key(second)) == (first == second)


class TestJournalRoundTrip:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("coverage") / "run.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        report = Collie.for_subsystem(
            "H", budget_hours=BUDGET_HOURS, seed=SEED, recorder=recorder
        ).run()
        recorder.close()
        return report, path

    def test_journal_coverage_counts_the_report(self, recorded):
        """The journal carries every point, skip and MFS the coverage
        maps bucket."""
        report, path = recorded
        trackers = coverage_from_records(read_journal(path))
        assert len(trackers) == 1
        posthoc = trackers[0]
        direct = CoverageTracker.for_subsystem("H")
        for event in report.events:
            direct.visit(event.workload)
        for mfs in report.anomalies:
            direct.mark_mfs(mfs)
        assert posthoc.experiments == direct.experiments == report.experiments
        assert posthoc.skips == report.skipped_points
        assert posthoc.unique_points == direct.unique_points
        assert posthoc.visited == direct.visited
        assert posthoc.mfs_admitted == direct.mfs_admitted

    def test_journal_contains_no_coverage_records(self, recorded):
        """The maps are folded from the event records (``repro
        coverage``, ``--coverage``), never journaled."""
        _, path = recorded
        assert "coverage" not in {r["t"] for r in read_journal(path)}


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
