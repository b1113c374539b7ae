"""MFS extraction against synthetic (fast, deterministic) oracles."""

import pytest

from repro.core.collie import Collie
from repro.core.mfs import (
    IntervalCondition,
    MembershipCondition,
    MFSExtractor,
    MinimalFeatureSet,
    _triggering_run_bounds,
    match_any,
)
from repro.core.space import SearchSpace
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import Colocation, WorkloadDescriptor
from repro.verbs.constants import Opcode, QPType


@pytest.fixture
def space():
    return SearchSpace.for_subsystem(get_subsystem("F"))


def oracle(predicate):
    """Symptom oracle from a boolean predicate over workloads."""

    def classify(workload):
        return "pause frame" if predicate(workload) else "healthy"

    return classify


class TestConditions:
    def test_interval_matching(self):
        cond = IntervalCondition("num_qps", low=16, high=256)
        assert cond.matches(16) and cond.matches(256)
        assert not cond.matches(15) and not cond.matches(257)

    def test_open_ended_intervals(self):
        assert IntervalCondition("x", low=None, high=5).matches(-1e9)
        assert IntervalCondition("x", low=5, high=None).matches(1e9)

    def test_membership_matching(self):
        cond = MembershipCondition("qp_type", ("RC", "UC"))
        assert cond.matches("RC")
        assert not cond.matches("UD")

    def test_describe_strings(self):
        assert "num_qps >= 16" == IntervalCondition("num_qps", 16, None).describe()
        assert "qp_type in {RC}" == MembershipCondition("qp_type",
                                                        ("RC",)).describe()


class TestMatching:
    def test_mfs_matches_its_region(self):
        mfs = MinimalFeatureSet(
            symptom="pause frame",
            witness=WorkloadDescriptor(),
            memberships=(MembershipCondition("qp_type", ("RC",)),),
            intervals=(IntervalCondition("num_qps", 100, None),),
        )
        assert mfs.matches(WorkloadDescriptor(num_qps=128))
        assert not mfs.matches(WorkloadDescriptor(num_qps=8))
        assert not mfs.matches(
            WorkloadDescriptor(qp_type=QPType.UC, opcode=Opcode.WRITE,
                               num_qps=128)
        )

    def test_mix_requirement(self):
        mfs = MinimalFeatureSet(
            symptom="pause frame",
            witness=WorkloadDescriptor(),
            requires_mix=True,
        )
        assert mfs.matches(
            WorkloadDescriptor(msg_sizes_bytes=(128, 65536))
        )
        assert not mfs.matches(WorkloadDescriptor(msg_sizes_bytes=(128,)))

    def test_match_any_returns_first_hit(self):
        narrow = MinimalFeatureSet(
            symptom="s", witness=WorkloadDescriptor(),
            intervals=(IntervalCondition("num_qps", 1000, None),),
        )
        wide = MinimalFeatureSet(
            symptom="s", witness=WorkloadDescriptor(),
            intervals=(IntervalCondition("num_qps", 1, None),),
        )
        assert match_any([narrow, wide], WorkloadDescriptor(num_qps=8)) is wide
        assert match_any([narrow], WorkloadDescriptor(num_qps=8)) is None

    def test_match_any_is_the_first_match_over_a_search(self):
        """For the MFS sets and points of two short searches: every
        prefix of the set (the empty one too) and the set reversed."""
        matched = 0
        for letter, seed in (("H", 2), ("F", 1)):
            report = Collie.for_subsystem(
                letter, budget_hours=1.0, seed=seed
            ).run()
            anomalies = report.anomalies
            assert anomalies
            sets = [anomalies[:n] for n in range(len(anomalies) + 1)]
            sets.append(anomalies[::-1])
            for workload in [event.workload for event in report.events]:
                for mfs_set in sets:
                    expected = next(
                        (m for m in mfs_set if m.matches(workload)), None
                    )
                    assert match_any(mfs_set, workload) is expected
                    matched += expected is not None
        assert matched


class TestRunBounds:
    def test_bounds_only_from_tested_triggering_values(self):
        ladder = [1, 2, 8, 32, 128]
        # tested: 1 (fail), 8 (pass), 32=origin (pass); 2 untested.
        results = {0: False, 2: True, 3: True}
        low, high = _triggering_run_bounds(ladder, results, origin_index=3)
        assert low == 8  # never 2: it was not probed
        assert high == 32  # index 4 untested: stay conservative

    def test_unbounded_when_everything_triggers(self):
        assert _triggering_run_bounds([1, 2, 3], {0: True, 1: True, 2: True},
                                      1) == (None, None)

    def test_high_bound_from_failing_probe(self):
        ladder = [1, 2, 4, 8]
        results = {0: True, 1: True, 2: False, 3: False}
        low, high = _triggering_run_bounds(ladder, results, origin_index=0)
        assert low is None
        assert high == 2


class TestExtraction:
    def test_single_categorical_condition(self, space):
        classify = oracle(lambda w: w.colocation is Colocation.MIXED_LOOPBACK)
        extractor = MFSExtractor(space, classify)
        witness = WorkloadDescriptor(colocation=Colocation.MIXED_LOOPBACK)
        mfs = extractor.construct(witness, "pause frame")
        assert mfs is not None
        assert any(
            c.dimension == "colocation" and c.allowed == ("mixed_loopback",)
            for c in mfs.memberships
        )
        # No spurious interval conditions on unrelated dimensions.
        assert not any(c.dimension == "num_qps" for c in mfs.intervals)

    def test_threshold_interval_condition(self, space):
        classify = oracle(lambda w: w.num_qps >= 512)
        extractor = MFSExtractor(space, classify)
        mfs = extractor.construct(
            WorkloadDescriptor(num_qps=2048), "pause frame"
        )
        conds = {c.dimension: c for c in mfs.intervals}
        assert "num_qps" in conds
        assert conds["num_qps"].low == 512
        assert conds["num_qps"].high is None
        # The MFS must never cover healthy space (soundness).
        assert not mfs.matches(WorkloadDescriptor(num_qps=256))

    def test_conjunction_extraction(self, space):
        classify = oracle(
            lambda w: w.qp_type is QPType.UD and w.wq_depth >= 1024
        )
        witness = WorkloadDescriptor(
            qp_type=QPType.UD, opcode=Opcode.SEND, mtu=1024,
            wq_depth=2048, msg_sizes_bytes=(512,),
        )
        mfs = MFSExtractor(space, classify).construct(witness, "pause frame")
        assert mfs.matches(witness)
        assert not mfs.matches(witness.replace(wq_depth=128))

    def test_soundness_on_product_constraint(self, space):
        """Axis-aligned boxes must under- not over-approximate a
        product-shaped trigger region (the A7 total-MRs shape)."""
        classify = oracle(lambda w: w.total_mrs >= 12288)
        witness = WorkloadDescriptor(num_qps=512, mrs_per_qp=128)
        mfs = MFSExtractor(space, classify).construct(witness, "pause frame")
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(300):
            probe = space.random(rng)
            if mfs.matches(probe):
                assert probe.total_mrs >= 12288

    def test_reduction_isolates_one_anomaly(self, space):
        """A witness straddling two anomalies reduces into exactly one."""
        classify = oracle(
            lambda w: (
                w.colocation is Colocation.MIXED_LOOPBACK
                or w.num_qps >= 8192
            )
        )
        witness = WorkloadDescriptor(
            colocation=Colocation.MIXED_LOOPBACK, num_qps=16384
        )
        extractor = MFSExtractor(space, classify)
        mfs = extractor.construct(witness, "pause frame")
        assert mfs is not None
        # The reduced witness must sit in a single region; the MFS then
        # has exactly one necessary condition, not a vacuous union.
        assert mfs.conditions >= 1

    def test_refind_returns_none_when_known_covers_reduction(self, space):
        classify = oracle(lambda w: w.num_qps >= 512)
        extractor = MFSExtractor(space, classify)
        first = extractor.construct(
            WorkloadDescriptor(num_qps=2048), "pause frame"
        )
        second = extractor.construct(
            WorkloadDescriptor(num_qps=16384, wqe_batch=64),
            "pause frame",
            known=[first],
        )
        assert second is None

    def test_degenerate_extraction_pins_transport(self, space):
        """If every probe triggers (pathological oracle), the fallback
        pins the witness's transport identity instead of matching all."""
        classify = oracle(lambda w: True)
        mfs = MFSExtractor(space, classify).construct(
            WorkloadDescriptor(), "pause frame", reduce=False
        )
        assert mfs.conditions >= 1

    def test_mix_requirement_detected(self, space):
        classify = oracle(lambda w: w.mixes_small_and_large)
        witness = WorkloadDescriptor(
            msg_sizes_bytes=(128, 65536, 128, 128)
        )
        mfs = MFSExtractor(space, classify).construct(witness, "pause frame")
        assert mfs.requires_mix
        assert not mfs.matches(witness.replace(msg_sizes_bytes=(128,)))

    def test_probe_budget_is_bounded(self, space):
        classify = oracle(lambda w: w.num_qps >= 512)
        extractor = MFSExtractor(space, classify, probes_per_dimension=2)
        extractor.construct(WorkloadDescriptor(num_qps=2048), "pause frame")
        assert extractor.experiments < 120

    def test_validation(self, space):
        with pytest.raises(ValueError):
            MFSExtractor(space, oracle(lambda w: True),
                         probes_per_dimension=1)
