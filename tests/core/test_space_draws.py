"""Search moves draw with ``Generator.integers``, reading what ``choice`` read.

``SearchSpace.random`` and ``mutate`` index their choices with
``rng.integers(n)`` where they once called ``rng.choice``.  Every search
result rests on the two reading the same bits and landing on the same
value, so these tests pin it twice: on numpy itself (``choice`` against
``integers`` indexing, interleaved with the other draws a search makes),
and on the space (the implementation it replaced, kept here as the
reference, against the current one over hypothesis streams on A–H).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import (
    CATEGORICAL_DIMENSIONS,
    ORDERED_DIMENSIONS,
    PATTERN_DIMENSION,
    SearchSpace,
)
from repro.hardware.subsystems import get_subsystem

SEEDS = (0, 1, 7, 101, 2**31 - 1)


def _interleave(rng):
    """The other draws a search makes between two choices."""
    return rng.random(), rng.normal(size=3).tolist()


class TestNumpyDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice_of_a_count_is_integers(self, seed):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(1, 65):
            assert old.choice(n) == new.integers(n)
            assert _interleave(old) == _interleave(new)
        assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("kind", [tuple, np.asarray])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice_of_a_sequence_is_indexing(self, seed, kind):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(1, 65):
            for values in (
                tuple(range(10, 10 + n)),  # an integer ladder
                tuple(0.25 * (i + 1) for i in range(n)),  # duty cycles
            ):
                picked = old.choice(kind(values))
                assert picked == values[new.integers(len(values))]
                assert _interleave(old) == _interleave(new)
        assert old.bit_generator.state == new.bit_generator.state


# -- the reference: the draws as rng.choice made them -----------------------------


def reference_random(space, rng):
    choice = rng.choice
    raw = {
        "qp_type": space.qp_types[choice(len(space.qp_types))],
        "opcode": space.opcodes[choice(len(space.opcodes))],
        "direction": space.directions[choice(len(space.directions))],
        "colocation": space.colocations[choice(len(space.colocations))],
        "sg_layout": space.sg_layouts[choice(len(space.sg_layouts))],
        "src_device": space.memory_devices[choice(len(space.memory_devices))],
        "dst_device": space.memory_devices[choice(len(space.memory_devices))],
        "mtu": int(choice(space.mtus)),
        "num_qps": int(choice(space.qps_choices)),
        "wqe_batch": int(choice(space.batch_choices)),
        "sge_per_wqe": int(choice(space.sge_choices)),
        "wq_depth": int(choice(space.wq_depth_choices)),
        "mrs_per_qp": int(choice(space.mrs_per_qp_choices)),
        "mr_bytes": int(choice(space.mr_bytes_choices)),
        "duty_cycle": float(choice(space.duty_cycles)),
        "msg_sizes_bytes": tuple(
            int(choice(space.msg_size_choices))
            for _ in range(space.pattern_length)
        ),
    }
    return space.coerce(raw)


def reference_mutate(space, workload, rng):
    raw = space._to_raw(workload)
    mutations = 2 if rng.random() < 0.2 else 1
    for _ in range(mutations):
        _reference_mutate_raw(space, raw, rng)
    return space.coerce(raw)


def _reference_mutate_raw(space, raw, rng):
    dims = (
        list(ORDERED_DIMENSIONS)
        + list(CATEGORICAL_DIMENSIONS)
        + [PATTERN_DIMENSION]
    )
    dimension = dims[rng.choice(len(dims))]
    if dimension == PATTERN_DIMENSION:
        pattern = list(raw["msg_sizes_bytes"])
        size = int(
            space.msg_size_choices[rng.choice(len(space.msg_size_choices))]
        )
        if rng.random() < 0.25:
            pattern = [size] * len(pattern)
        else:
            pattern[int(rng.integers(len(pattern)))] = size
        raw["msg_sizes_bytes"] = tuple(pattern)
    elif dimension in ORDERED_DIMENSIONS:
        ladder = space.ordered_choices(dimension)
        index = space._nearest_index(ladder, raw[dimension])
        if rng.random() < 0.25:
            raw[dimension] = ladder[rng.choice(len(ladder))]
        else:
            step = int(rng.choice((-2, -1, 1, 2)))
            raw[dimension] = ladder[max(0, min(len(ladder) - 1, index + step))]
    else:
        options = [
            v for v in space.categorical_choices(dimension)
            if v != raw[dimension]
        ]
        if options:
            raw[dimension] = options[rng.choice(len(options))]


class TestSearchMoves:
    @given(
        letter=st.sampled_from("ABCDEFGH"),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        duty=st.booleans(),
        restarts=st.lists(st.integers(0, 40), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_moves_equal_the_choice_reference(
        self, letter, seed, duty, restarts
    ):
        """Random restarts and mutation walks: equal workloads (types
        included, through ``repr``) and equal generator states."""
        overrides = {"duty_cycles": (0.25, 0.5, 1.0)} if duty else {}
        space = SearchSpace.for_subsystem(get_subsystem(letter), **overrides)
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for steps in restarts:
            before = reference_random(space, old)
            after = space.random(new)
            assert repr(after) == repr(before)
            for _ in range(steps):
                before = reference_mutate(space, before, old)
                after = space.mutate(after, new)
                assert repr(after) == repr(before)
            assert old.bit_generator.state == new.bit_generator.state
