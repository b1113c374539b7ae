"""The search space: sampling, mutation, coercion invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import (
    BATCH_CHOICES,
    CATEGORICAL_DIMENSIONS,
    MAX_QPS,
    MAX_TOTAL_MRS,
    MR_BYTES_CHOICES,
    MRS_PER_QP_CHOICES,
    MTU_CHOICES,
    ORDERED_DIMENSIONS,
    QPS_CHOICES,
    SGE_CHOICES,
    WQ_DEPTH_CHOICES,
    SearchSpace,
)
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import SGLayout, WorkloadDescriptor
from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType


@pytest.fixture
def space():
    return SearchSpace.for_subsystem(get_subsystem("F"))


class TestConstruction:
    def test_for_subsystem_picks_up_devices_and_pattern_length(self, space):
        assert space.memory_devices == ("numa0", "numa1", "gpu0")
        assert space.pattern_length == 8

    def test_restriction_kwargs(self):
        restricted = SearchSpace.for_subsystem(
            "B", qp_types=(QPType.RC,), opcodes=(Opcode.WRITE,)
        )
        assert restricted.qp_types == (QPType.RC,)
        assert restricted.opcodes == (Opcode.WRITE,)

    def test_space_is_large(self, space):
        """The paper puts the space around 10^36; ours is coarser but
        still far beyond exhaustive search."""
        assert space.log10_size() > 12

    def test_choice_accessors(self, space):
        assert space.ordered_choices("num_qps")[-1] <= MAX_QPS
        assert QPType.RC in space.categorical_choices("qp_type")
        with pytest.raises(KeyError):
            space.ordered_choices("qp_type")
        with pytest.raises(KeyError):
            space.categorical_choices("num_qps")


def rebuilt_ordered_choices(space, dimension):
    """The ladder lookup as it stood when it rebuilt every ladder per
    call: the reference the cached ladder table must reproduce."""
    base = {
        "mtu": MTU_CHOICES,
        "num_qps": QPS_CHOICES,
        "wqe_batch": BATCH_CHOICES,
        "sge_per_wqe": SGE_CHOICES,
        "wq_depth": WQ_DEPTH_CHOICES,
        "mrs_per_qp": MRS_PER_QP_CHOICES,
        "mr_bytes": MR_BYTES_CHOICES,
    }
    base["mtu"] = space.mtus
    base["num_qps"] = space.qps_choices
    base["wqe_batch"] = space.batch_choices
    base["sge_per_wqe"] = space.sge_choices
    base["wq_depth"] = space.wq_depth_choices
    base["mrs_per_qp"] = space.mrs_per_qp_choices
    base["mr_bytes"] = space.mr_bytes_choices
    base["duty_cycle"] = space.duty_cycles
    if dimension not in base:
        raise KeyError(f"{dimension!r} is not an ordered dimension")
    return tuple(base[dimension])


class TestOrderedLadders:
    """The per-space ladder table equals a per-call rebuild."""

    @pytest.mark.parametrize("letter", list("ABCDEFGH"))
    @pytest.mark.parametrize("duty_cycles", [(1.0,), (0.25, 0.5, 1.0)])
    def test_matches_per_call_rebuild(self, letter, duty_cycles):
        space = SearchSpace.for_subsystem(letter, duty_cycles=duty_cycles)
        for dimension in ORDERED_DIMENSIONS:
            ladder = space.ordered_choices(dimension)
            assert type(ladder) is tuple
            assert ladder == rebuilt_ordered_choices(space, dimension)

    def test_replace_builds_its_own_table(self):
        space = SearchSpace.for_subsystem("F")
        assert space.ordered_choices("mtu") == MTU_CHOICES
        narrowed = dataclasses.replace(space, mtus=[1024, 4096])
        assert narrowed.ordered_choices("mtu") == (1024, 4096)
        assert space.ordered_choices("mtu") == MTU_CHOICES
        for dimension in ORDERED_DIMENSIONS:
            assert narrowed.ordered_choices(dimension) \
                == rebuilt_ordered_choices(narrowed, dimension)

    def test_table_leaves_identity_alone(self):
        fresh = SearchSpace.for_subsystem("F")
        used = SearchSpace.for_subsystem("F")
        used.ordered_choices("num_qps")
        assert repr(used) == repr(fresh)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert dataclasses.replace(used) == fresh

    @pytest.mark.parametrize(
        "dimension", ["qp_type", "msg_pattern", "avg_msg", "nonsense"]
    )
    def test_unknown_dimension_raises_key_error(self, dimension):
        space = SearchSpace.for_subsystem("F")
        with pytest.raises(KeyError, match="is not an ordered dimension"):
            space.ordered_choices(dimension)
        with pytest.raises(KeyError):
            rebuilt_ordered_choices(space, dimension)


class TestRandomSampling:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_every_sample_is_valid(self, seed):
        """Sampling + coercion always yields a constructible workload
        satisfying the verbs couplings (constructor raises otherwise)."""
        space = SearchSpace.for_subsystem(get_subsystem("F"))
        workload = space.random(np.random.default_rng(seed))
        assert workload.opcode in SUPPORTED_OPCODES[workload.qp_type]
        assert workload.total_mrs <= MAX_TOTAL_MRS
        assert workload.num_qps <= MAX_QPS
        assert len(workload.msg_sizes_bytes) == space.pattern_length
        if workload.qp_type is QPType.UD:
            assert workload.max_msg_bytes <= workload.mtu
        if workload.sge_per_wqe == 1:
            assert workload.sg_layout is SGLayout.EVEN

    def test_samples_cover_transports(self, space, rng):
        seen = {space.random(rng).qp_type for _ in range(100)}
        assert seen == {QPType.RC, QPType.UC, QPType.UD}

    def test_restricted_space_respects_restriction(self, rng):
        restricted = SearchSpace.for_subsystem("F", qp_types=(QPType.RC,))
        for _ in range(50):
            assert restricted.random(rng).qp_type is QPType.RC


class TestMutation:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_mutants_stay_valid(self, seed):
        space = SearchSpace.for_subsystem(get_subsystem("F"))
        rng = np.random.default_rng(seed)
        workload = space.random(rng)
        for _ in range(10):
            workload = space.mutate(workload, rng)
            assert workload.opcode in SUPPORTED_OPCODES[workload.qp_type]
            assert workload.total_mrs <= MAX_TOTAL_MRS

    def test_mutation_changes_few_dimensions(self, space, rng):
        from repro.core.space import PATTERN_DIMENSION  # noqa: F401

        workload = space.random(rng)
        for _ in range(30):
            mutant = space.mutate(workload, rng)
            differing = sum(
                1
                for dim in ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS
                if getattr(mutant, dim) != getattr(workload, dim)
            )
            pattern_changed = (
                mutant.msg_sizes_bytes != workload.msg_sizes_bytes
            )
            # one or two mutated dims, plus possible coercion fix-ups
            assert differing + (1 if pattern_changed else 0) <= 4

    def test_mutation_eventually_moves_every_dimension(self, space, rng):
        workload = space.random(rng)
        moved = set()
        current = workload
        for _ in range(500):
            mutant = space.mutate(current, rng)
            for dim in ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS:
                if getattr(mutant, dim) != getattr(current, dim):
                    moved.add(dim)
            if mutant.msg_sizes_bytes != current.msg_sizes_bytes:
                moved.add("msg_pattern")
            current = mutant
        assert len(moved) >= 12


class TestWithValue:
    def test_sets_ordered_dimension(self, space, rng):
        workload = space.random(rng)
        probe = space.with_value(workload, "num_qps", 4096)
        assert probe.num_qps == 4096

    def test_sets_pattern(self, space, rng):
        workload = space.random(rng)
        pattern = (2048,) * space.pattern_length
        probe = space.with_value(workload, "msg_pattern", pattern)
        if probe.qp_type is not QPType.UD or probe.mtu >= 2048:
            assert probe.msg_sizes_bytes == pattern

    def test_coercion_can_roll_back_invalid_values(self, space, rng):
        base = space.with_value(
            space.random(rng), "qp_type", QPType.UD
        )
        probe = space.with_value(base, "opcode", Opcode.READ)
        assert probe.opcode is Opcode.SEND  # UD cannot READ


class TestCoercion:
    def test_mr_budget_steps_down(self, space):
        raw = space._to_raw(WorkloadDescriptor())
        raw["num_qps"] = 16384
        raw["mrs_per_qp"] = 1024  # 16M MRs: way over the 200K budget
        workload = space.coerce(raw)
        assert workload.total_mrs <= MAX_TOTAL_MRS

    def test_ud_messages_clipped_to_mtu(self, space):
        raw = space._to_raw(WorkloadDescriptor())
        raw["qp_type"] = QPType.UD
        raw["opcode"] = Opcode.SEND
        raw["mtu"] = 512
        raw["msg_sizes_bytes"] = (4096, 100, 512)
        workload = space.coerce(raw)
        assert workload.msg_sizes_bytes == (512, 100, 512)
