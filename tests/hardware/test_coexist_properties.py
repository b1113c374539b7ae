"""Property suite for the co-run (isolation) datapath.

Pins the three invariants the adversarial-neighbor domain is built on,
across every Table 1 subsystem:

* **fair-share protection** — at ``victim_share=1.0`` an attacker that
  adds zero opaque-resource pressure (no extra cache misses, no newly
  fired quirk rules) cannot move the victim off its fair share:
  ``interference_factor`` is exactly 1.0;
* **monotonicity** — growing the attacker's cache working set never
  *improves* the victim: interference is non-increasing in attacker
  QP count and MR count;
* **bit-identity** — the co-run seam is invisible when no victim is
  pinned: measurements, the RNG stream and recorded journals are
  byte-identical to the solo path.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.testbed import Testbed
from repro.core.collie import Collie
from repro.hardware.coexist import (
    CoexistenceModel,
    CoRunModel,
    contend_direction,
    joint_occupancy_features,
)
from repro.hardware.features import extract_features
from repro.hardware.model import SteadyStateModel
from repro.hardware.rules import fired_rules
from repro.hardware.subsystems import get_subsystem, list_subsystems
from repro.hardware.workload import WorkloadDescriptor
from repro.verbs.constants import Opcode

LETTERS = [s.name for s in list_subsystems()]


def victims():
    """Modest victims: small enough to leave cache headroom everywhere."""
    return st.builds(
        WorkloadDescriptor,
        opcode=st.sampled_from([Opcode.WRITE, Opcode.SEND]),
        num_qps=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        wqe_batch=st.sampled_from([1, 2, 4]),
        wq_depth=st.sampled_from([16, 64]),
        msg_sizes_bytes=st.sampled_from([(256,), (512,), (4096,)]),
        mtu=st.just(1024),
    )


def small_message_victim() -> WorkloadDescriptor:
    """The fixed monotonicity victim: maximally miss-exposed."""
    return WorkloadDescriptor(
        opcode=Opcode.WRITE, num_qps=64, wqe_batch=1,
        msg_sizes_bytes=(512,), mtu=1024,
    )


def _polite_attacker(num_qps: int) -> WorkloadDescriptor:
    """Few connections, one MR, huge batched messages: zero pressure."""
    return WorkloadDescriptor(
        opcode=Opcode.WRITE, num_qps=num_qps, mrs_per_qp=1,
        msg_sizes_bytes=(1048576,), mtu=4096, wqe_batch=16,
    )


def _thrashing_attacker(num_qps: int, mrs_per_qp: int) -> WorkloadDescriptor:
    return WorkloadDescriptor(
        opcode=Opcode.WRITE, num_qps=num_qps, mrs_per_qp=mrs_per_qp,
        msg_sizes_bytes=(512,), mtu=1024, wqe_batch=1,
    )


@pytest.mark.parametrize("letter", LETTERS)
class TestFairShareProtection:
    """share=1.0 + zero-pressure attacker ⇒ interference exactly 1.0."""

    @given(victim=victims(), attacker_qps=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_zero_pressure_attacker_cannot_interfere(
        self, letter, victim, attacker_qps
    ):
        subsystem = get_subsystem(letter)
        attacker = _polite_attacker(attacker_qps)
        own = extract_features(victim, subsystem)
        joint = joint_occupancy_features(victim, attacker, subsystem, own=own)
        # The property's premise: the attacker adds no opaque pressure.
        assume(joint["qpc_miss"] == own["qpc_miss"])
        assume(joint["mtt_miss"] == own["mtt_miss"])
        if victim.uses_recv_wqes:
            assume(joint["rxq_capacity_miss"] == own["rxq_capacity_miss"])
        own_fired = [f.tag for f in fired_rules(subsystem.rnic.rules, own)]
        joint_fired = [
            f.tag for f in fired_rules(subsystem.rnic.rules, joint)
        ]
        assume(own_fired == joint_fired)
        result = CoexistenceModel(subsystem, noise=0.0).evaluate(
            victim, attacker, victim_share=1.0
        )
        assert result.interference_factor == pytest.approx(1.0, rel=1e-9)

    @given(victim=victims())
    @settings(max_examples=10, deadline=None)
    def test_interference_never_above_one(self, letter, victim):
        """min(1, shared/fair) bounds the factor even at full share."""
        result = CoexistenceModel(get_subsystem(letter), noise=0.0).evaluate(
            victim, _thrashing_attacker(4096, 32), victim_share=1.0
        )
        assert result.interference_factor <= 1.0


@pytest.mark.parametrize("letter", LETTERS)
class TestMonotonicity:
    """Interference is non-increasing in the attacker's working set."""

    SCALES = (1, 4, 16, 64, 256, 1024, 4096)
    MRS = (1, 4, 32)

    @given(
        pair=st.tuples(
            st.sampled_from(SCALES), st.sampled_from(SCALES)
        ),
        mrs=st.sampled_from(MRS),
    )
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_attacker_qps(self, letter, pair, mrs):
        small, big = sorted(pair)
        model = CoexistenceModel(get_subsystem(letter), noise=0.0)
        victim = small_message_victim()
        mild = model.evaluate(
            victim, _thrashing_attacker(small, mrs), victim_share=0.5
        )
        severe = model.evaluate(
            victim, _thrashing_attacker(big, mrs), victim_share=0.5
        )
        assert severe.interference_factor <= (
            mild.interference_factor + 1e-9
        )

    @given(
        qps=st.sampled_from(SCALES),
        pair=st.tuples(st.sampled_from(MRS), st.sampled_from(MRS)),
    )
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_attacker_mrs(self, letter, qps, pair):
        small, big = sorted(pair)
        model = CoexistenceModel(get_subsystem(letter), noise=0.0)
        victim = small_message_victim()
        mild = model.evaluate(
            victim, _thrashing_attacker(qps, small), victim_share=0.5
        )
        severe = model.evaluate(
            victim, _thrashing_attacker(qps, big), victim_share=0.5
        )
        assert severe.interference_factor <= (
            mild.interference_factor + 1e-9
        )


def _measurement_key(measurement):
    """Everything observable about one measurement, exactly."""
    return (
        measurement.workload,
        measurement.subsystem_name,
        tuple(measurement.directions),
        tuple(sorted(measurement.counters.items())),
        tuple(measurement.samples),  # CounterSample defines value equality
        measurement.tags,
    )


class TestNoAttackerBitIdentity:
    """The co-run seam is invisible without a pinned victim."""

    def test_uncontended_direction_is_same_object(self, subsystem_f):
        solve = SteadyStateModel(subsystem_f, noise=0.0)._solve(
            small_message_victim(), phase="test"
        )
        for d in solve.directions:
            assert contend_direction(d, 1.0, 1.0) is d
            assert contend_direction(d, 2.0, 0.6) is d  # ratio >= 1

    def test_testbed_without_victim_is_the_solo_testbed(self, subsystem_f):
        """victim=None leaves measurements and the RNG stream untouched."""
        workloads = [
            small_message_victim(),
            _thrashing_attacker(512, 4),
            _polite_attacker(2),
        ]
        solo = Testbed(subsystem_f, noise=0.02)
        seamed = Testbed(
            subsystem_f, noise=0.02, victim=None, victim_share=0.9
        )
        assert seamed.victim_floor is None
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        for workload in workloads:
            a = solo.run(workload, rng=rng_a)
            b = seamed.run(workload, rng=rng_b)
            assert _measurement_key(a.measurement) == _measurement_key(
                b.measurement
            )
        assert (
            rng_a.bit_generator.state == rng_b.bit_generator.state
        )

    def test_corun_evaluate_consumes_the_solo_rng_stream(self, subsystem_f):
        """A co-run measurement draws exactly the solo noise stream, so
        recorded isolation runs stay lockstep-safe."""
        attacker = _thrashing_attacker(256, 4)
        rng_solo = np.random.default_rng(23)
        rng_corun = np.random.default_rng(23)
        SteadyStateModel(subsystem_f, noise=0.02).evaluate(
            attacker, rng_solo
        )
        CoRunModel(
            subsystem_f, small_message_victim(), 0.5, noise=0.02
        ).evaluate(attacker, rng_corun)
        assert (
            rng_solo.bit_generator.state == rng_corun.bit_generator.state
        )

    def test_solo_journal_bytes_identical_and_isolation_free(self, tmp_path):
        """A search without --victim journals byte-identically whether or
        not the victim parameter is spelled out, and never writes the
        isolation record or the interference field (v5 byte-compat)."""
        from repro.obs.journal import RunJournal
        from repro.obs.recorder import FlightRecorder

        paths = []
        for name, kwargs in (
            ("implicit.jsonl", {}),
            ("explicit.jsonl", {"victim": None, "victim_share": 0.8}),
        ):
            path = tmp_path / name
            journal = RunJournal(path)
            recorder = FlightRecorder(journal=journal)
            Collie(
                get_subsystem("A"), budget_hours=0.1, seed=7,
                recorder=recorder, **kwargs,
            ).run()
            recorder.close()
            paths.append(path)
        first, second = (
            [json.loads(line) for line in p.read_bytes().splitlines()]
            for p in paths
        )
        assert first == second
        assert all(r["t"] != "isolation" for r in first)
        assert all(
            "interference" not in r
            for r in first if r["t"] == "experiment"
        )
