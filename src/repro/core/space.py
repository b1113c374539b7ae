"""The four-dimensional workload search space (paper §4).

The space is defined from the developer's perspective — every choice a
verbs programmer can make — rather than from hardware internals:

* **Dimension 1, host topology**: which memory device backs each side's
  MRs, and whether client processes are co-located (loopback traffic);
* **Dimension 2, memory allocation**: how many MRs per QP and their size
  (bounded: ≤200K MRs total, as in the paper);
* **Dimension 3, transport**: QP type, opcode, direction, MTU, number of
  QPs (bounded at ~20K), WQE batch size, SG entries per WQE, WQ depth;
* **Dimension 4, message pattern**: a fixed-length request vector whose
  length is the RNIC's PUs × pipeline stages, with sizes discretised
  around the MTU and burst size.

:class:`SearchSpace` owns value choices per dimension, uniform sampling,
single-dimension mutation (the SA neighbour function), and coercion rules
that keep sampled points verbs-legal (UD is SEND-only and single-MTU).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from typing import Optional, Sequence

import numpy as np

from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import (
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType

#: Paper bounds: "reasonable upper bound on the number of MRs (200K)" and
#: "an upper bound (e.g., 20K) for the number of QPs".
MAX_TOTAL_MRS = 200_000
MAX_QPS = 20_000

QPS_CHOICES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
BATCH_CHOICES = (1, 2, 4, 8, 16, 32, 64, 128)
SGE_CHOICES = (1, 2, 3, 4, 5, 6, 7, 8)
WQ_DEPTH_CHOICES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
MTU_CHOICES = (256, 512, 1024, 2048, 4096)
MSG_SIZE_CHOICES = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
    65536, 262144, 1048576, 4194304,
)
MRS_PER_QP_CHOICES = (1, 2, 8, 32, 128, 1024)
MR_BYTES_CHOICES = (4096, 65536, 262144, 1048576, 4194304)

#: The mutable dimensions, in the order MFS probing walks them.
#: ``duty_cycle`` participates only when the space enables the §8
#: inter-arrival extension (its default ladder has a single value).
ORDERED_DIMENSIONS = (
    "mtu", "num_qps", "wqe_batch", "sge_per_wqe", "wq_depth",
    "mrs_per_qp", "mr_bytes", "duty_cycle",
)
CATEGORICAL_DIMENSIONS = (
    "qp_type", "opcode", "direction", "src_device", "dst_device",
    "colocation", "sg_layout",
)
PATTERN_DIMENSION = "msg_pattern"

#: The paper's four workload dimensions (§4), as groups of the concrete
#: sub-dimensions above.  Coverage maps aggregate per group; ``avg_msg``
#: projects the request vector onto the message-size ladder.
DIMENSION_GROUPS = {
    "host_topology": ("src_device", "dst_device", "colocation"),
    "memory": ("mrs_per_qp", "mr_bytes"),
    "transport": (
        "qp_type", "opcode", "direction", "mtu", "num_qps", "wqe_batch",
        "sge_per_wqe", "wq_depth",
    ),
    "message_pattern": ("avg_msg", "sg_layout", "duty_cycle"),
}

#: What one mutation draws from: every mutable dimension.
_MUTABLE_DIMENSIONS = (
    *ORDERED_DIMENSIONS, *CATEGORICAL_DIMENSIONS, PATTERN_DIMENSION,
)
#: A local ordered-dimension move, in ladder rungs.
_LADDER_STEPS = (-2, -1, 1, 2)


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """Value choices for every dimension, specialised to one subsystem."""

    qp_types: tuple[QPType, ...] = (QPType.RC, QPType.UC, QPType.UD)
    opcodes: tuple[Opcode, ...] = (Opcode.SEND, Opcode.WRITE, Opcode.READ)
    directions: tuple[Direction, ...] = (
        Direction.UNIDIRECTIONAL, Direction.BIDIRECTIONAL,
    )
    colocations: tuple[Colocation, ...] = (
        Colocation.REMOTE_ONLY, Colocation.MIXED_LOOPBACK,
    )
    sg_layouts: tuple[SGLayout, ...] = (SGLayout.EVEN, SGLayout.MIXED)
    memory_devices: tuple[str, ...] = ("numa0", "numa1")
    mtus: tuple[int, ...] = MTU_CHOICES
    qps_choices: tuple[int, ...] = QPS_CHOICES
    batch_choices: tuple[int, ...] = BATCH_CHOICES
    sge_choices: tuple[int, ...] = SGE_CHOICES
    wq_depth_choices: tuple[int, ...] = WQ_DEPTH_CHOICES
    msg_size_choices: tuple[int, ...] = MSG_SIZE_CHOICES
    mrs_per_qp_choices: tuple[int, ...] = MRS_PER_QP_CHOICES
    mr_bytes_choices: tuple[int, ...] = MR_BYTES_CHOICES
    #: Request-vector length: RNIC PUs × pipeline stages (paper §4).
    pattern_length: int = 4
    #: §8 extension: sender duty cycles to explore.  The paper's space
    #: always saturates (1.0); pass several values to add the
    #: inter-arrival dimension.
    duty_cycles: tuple[float, ...] = (1.0,)

    @classmethod
    def for_subsystem(
        cls,
        subsystem: "Subsystem | str",
        qp_types: Optional[Sequence[QPType]] = None,
        opcodes: Optional[Sequence[Opcode]] = None,
        **overrides,
    ) -> "SearchSpace":
        """Build the space a subsystem actually exposes.

        The topology dimension enumerates the host's memory devices; the
        pattern length follows the RNIC's PU/pipeline geometry.  Keyword
        restrictions implement the §7.3 "developers restrict the search
        space using knowledge of their applications" workflow.
        """
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        kwargs: dict = {
            "memory_devices": tuple(subsystem.topology.device_names()),
            "pattern_length": subsystem.rnic.pattern_length,
        }
        if qp_types is not None:
            kwargs["qp_types"] = tuple(qp_types)
        if opcodes is not None:
            kwargs["opcodes"] = tuple(opcodes)
        kwargs.update(overrides)
        return cls(**kwargs)

    # -- introspection ------------------------------------------------------

    @functools.cached_property
    def _ordered_ladders(self) -> dict:
        """Every ordered dimension's ladder, built once per space.

        Cached in the instance ``__dict__``, not a field, so ``repr``,
        ``==`` and ``hash`` are unchanged and a ``dataclasses.replace``
        copy builds its own.
        """
        return {
            "mtu": tuple(self.mtus),
            "num_qps": tuple(self.qps_choices),
            "wqe_batch": tuple(self.batch_choices),
            "sge_per_wqe": tuple(self.sge_choices),
            "wq_depth": tuple(self.wq_depth_choices),
            "mrs_per_qp": tuple(self.mrs_per_qp_choices),
            "mr_bytes": tuple(self.mr_bytes_choices),
            "duty_cycle": tuple(self.duty_cycles),
        }

    def ordered_choices(self, dimension: str) -> tuple[int, ...]:
        """Value ladder of an ordered dimension."""
        try:
            return self._ordered_ladders[dimension]
        except KeyError:
            raise KeyError(
                f"{dimension!r} is not an ordered dimension"
            ) from None

    def categorical_choices(self, dimension: str) -> tuple:
        if dimension == "qp_type":
            return self.qp_types
        if dimension == "opcode":
            return self.opcodes
        if dimension == "direction":
            return self.directions
        if dimension == "colocation":
            return self.colocations
        if dimension == "sg_layout":
            return self.sg_layouts
        if dimension in ("src_device", "dst_device"):
            return self.memory_devices
        raise KeyError(f"{dimension!r} is not a categorical dimension")

    # -- coverage bucketing (observatory) -----------------------------------

    def coverage_dimensions(self) -> tuple[str, ...]:
        """Every bucketable dimension, grouped-dimension order."""
        return tuple(
            dimension
            for dimensions in DIMENSION_GROUPS.values()
            for dimension in dimensions
        )

    def dimension_buckets(self, dimension: str) -> tuple:
        """The bucket values of one dimension (ladder or choice set).

        Ordered dimensions bucket onto their value ladder, ``avg_msg``
        onto the message-size ladder, categoricals onto their choice
        labels.  ``str()`` of a bucket value is its display label.
        """
        if dimension == "avg_msg":
            return tuple(self.msg_size_choices)
        if dimension in ORDERED_DIMENSIONS:
            return self.ordered_choices(dimension)
        return tuple(
            getattr(value, "value", value)
            for value in self.categorical_choices(dimension)
        )

    def bucket_value(self, dimension: str, workload: WorkloadDescriptor):
        """The bucket a workload falls into on one dimension."""
        if dimension == "avg_msg":
            ladder = self.msg_size_choices
            return ladder[self._nearest_index(ladder, workload.avg_msg_bytes)]
        if dimension in ORDERED_DIMENSIONS:
            ladder = self.ordered_choices(dimension)
            return ladder[
                self._nearest_index(ladder, getattr(workload, dimension))
            ]
        value = getattr(workload, dimension)
        return getattr(value, "value", value)

    def point_buckets(self, workload: WorkloadDescriptor) -> dict:
        """Bucket values for every coverage dimension of one point."""
        return {
            dimension: self.bucket_value(dimension, workload)
            for dimension in self.coverage_dimensions()
        }

    def log10_size(self) -> float:
        """Order of magnitude of the full combinatorial space."""
        combos = (
            len(self.qp_types) * len(self.opcodes) * len(self.directions)
            * len(self.colocations) * len(self.memory_devices) ** 2
            * len(self.mtus) * len(self.qps_choices) * len(self.batch_choices)
            * len(self.sge_choices) * len(self.wq_depth_choices)
            * len(self.mrs_per_qp_choices) * len(self.mr_bytes_choices)
            * len(self.msg_size_choices) ** self.pattern_length
        )
        return math.log10(combos)

    # -- sampling -----------------------------------------------------------

    def random(self, rng: np.random.Generator) -> WorkloadDescriptor:
        """Uniform random point, coerced to verbs legality.

        Each dimension's value is its choices indexed by
        ``rng.integers(len(choices))``: the draw ``rng.choice`` makes
        (same bits, same value), without its per-call array handling.
        """
        draw = rng.integers

        def pick(choices):
            return choices[draw(len(choices))]

        raw = {
            "qp_type": pick(self.qp_types),
            "opcode": pick(self.opcodes),
            "direction": pick(self.directions),
            "colocation": pick(self.colocations),
            "sg_layout": pick(self.sg_layouts),
            "src_device": pick(self.memory_devices),
            "dst_device": pick(self.memory_devices),
            "mtu": int(pick(self.mtus)),
            "num_qps": int(pick(self.qps_choices)),
            "wqe_batch": int(pick(self.batch_choices)),
            "sge_per_wqe": int(pick(self.sge_choices)),
            "wq_depth": int(pick(self.wq_depth_choices)),
            "mrs_per_qp": int(pick(self.mrs_per_qp_choices)),
            "mr_bytes": int(pick(self.mr_bytes_choices)),
            "duty_cycle": float(pick(self.duty_cycles)),
            "msg_sizes_bytes": tuple(
                int(pick(self.msg_size_choices))
                for _ in range(self.pattern_length)
            ),
        }
        return self.coerce(raw)

    def mutate(
        self, workload: WorkloadDescriptor, rng: np.random.Generator
    ) -> WorkloadDescriptor:
        """Mutate the workload (paper Alg. 1, line 4).

        Usually one dimension; occasionally two at once, which lets the
        search cross trigger conditions that only matter jointly (e.g.
        anomaly #8 needs a shallow WQ *and* unbatched posting).  Ordered
        dimensions mostly step to a neighbouring ladder value (a local
        move SA can exploit) with an occasional uniform jump to escape
        plateaus; categorical dimensions resample; the message pattern
        mutates one element.
        """
        raw = self._to_raw(workload)
        mutations = 2 if rng.random() < 0.2 else 1
        for _ in range(mutations):
            self._mutate_raw(raw, rng)
        return self.coerce(raw)

    def _mutate_raw(self, raw: dict, rng: np.random.Generator) -> None:
        # Indices come from rng.integers(n), the draw rng.choice makes.
        dimension = _MUTABLE_DIMENSIONS[rng.integers(len(_MUTABLE_DIMENSIONS))]
        if dimension == PATTERN_DIMENSION:
            pattern = list(raw["msg_sizes_bytes"])
            size = int(
                self.msg_size_choices[rng.integers(len(self.msg_size_choices))]
            )
            if rng.random() < 0.25:
                # Macro-move: a uniform pattern of one size.  Uniform
                # patterns are the corners developers actually write
                # (perftest-style fixed-size loops), and they let the
                # search reach coordinated pattern states in one step.
                pattern = [size] * len(pattern)
            else:
                pattern[int(rng.integers(len(pattern)))] = size
            raw["msg_sizes_bytes"] = tuple(pattern)
        elif dimension in ORDERED_DIMENSIONS:
            ladder = self.ordered_choices(dimension)
            index = self._nearest_index(ladder, raw[dimension])
            if rng.random() < 0.25:
                raw[dimension] = ladder[rng.integers(len(ladder))]
            else:
                step = _LADDER_STEPS[rng.integers(len(_LADDER_STEPS))]
                raw[dimension] = ladder[
                    max(0, min(len(ladder) - 1, index + step))
                ]
        else:
            options = [
                v for v in self.categorical_choices(dimension)
                if v != raw[dimension]
            ]
            if options:
                raw[dimension] = options[rng.integers(len(options))]

    def with_values(
        self, workload: WorkloadDescriptor, values: dict
    ) -> WorkloadDescriptor:
        """Replace dimensions (used by MFS probing), then coerce once."""
        raw = self._to_raw(workload)
        for dimension, value in values.items():
            if dimension == PATTERN_DIMENSION:
                raw["msg_sizes_bytes"] = tuple(value)
            else:
                raw[dimension] = value
        return self.coerce(raw)

    # -- legality -----------------------------------------------------------

    def coerce(self, raw: dict) -> WorkloadDescriptor:
        """Fix up a raw dimension assignment into a legal workload.

        Verbs legality constraints are *couplings between dimensions*, so
        a mutation of one dimension may require adjusting another — the
        same fix-ups a developer would make:

        * UD supports only SEND, and one message per MTU (sizes clip);
        * UC supports SEND and WRITE (READ becomes WRITE);
        * total MRs stay within the 200K pinning budget (mrs_per_qp
          steps down);
        * QP count stays within the 20K bound.
        """
        raw = dict(raw)
        qp_type = raw["qp_type"]
        supported = SUPPORTED_OPCODES[qp_type]
        if raw["opcode"] not in supported:
            legal = [op for op in self.opcodes if op in supported] or list(supported)
            raw["opcode"] = legal[0]
        if qp_type is QPType.UD:
            raw["msg_sizes_bytes"] = tuple(
                min(size, raw["mtu"]) for size in raw["msg_sizes_bytes"]
            )
        if raw["sge_per_wqe"] == 1:
            # A single-entry SG list has no layout to mix.
            raw["sg_layout"] = SGLayout.EVEN
        raw["num_qps"] = min(raw["num_qps"], MAX_QPS)
        ladder = self.mrs_per_qp_choices
        index = self._nearest_index(ladder, raw["mrs_per_qp"])
        while index > 0 and raw["num_qps"] * ladder[index] > MAX_TOTAL_MRS:
            index -= 1
        raw["mrs_per_qp"] = ladder[index]
        return WorkloadDescriptor(**raw)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _to_raw(workload: WorkloadDescriptor) -> dict:
        return {
            "qp_type": workload.qp_type,
            "opcode": workload.opcode,
            "direction": workload.direction,
            "colocation": workload.colocation,
            "sg_layout": workload.sg_layout,
            "src_device": workload.src_device,
            "dst_device": workload.dst_device,
            "mtu": workload.mtu,
            "num_qps": workload.num_qps,
            "wqe_batch": workload.wqe_batch,
            "sge_per_wqe": workload.sge_per_wqe,
            "wq_depth": workload.wq_depth,
            "mrs_per_qp": workload.mrs_per_qp,
            "mr_bytes": workload.mr_bytes,
            "duty_cycle": workload.duty_cycle,
            "msg_sizes_bytes": workload.msg_sizes_bytes,
        }

    @staticmethod
    def _nearest_index(ladder: Sequence[int], value: int) -> int:
        """Index of the ladder rung nearest ``value`` in log space.

        Hot on the journal's read side: every surface that folds
        coverage (``coverage``, ``--coverage``, ``journal diff``, the
        live aggregator) buckets the whole history.  Ladders are sorted, so the nearest rung is one of the
        two bisection neighbors — two ``log2`` calls instead of one per
        rung.  A custom unsorted ladder falls back to the full scan.
        """
        if value <= 0:
            return 0
        ladder = tuple(ladder)
        if not _ladder_is_sorted(ladder):
            return min(
                range(len(ladder)),
                key=lambda i: abs(math.log2(ladder[i] / value)),
            )
        hi = bisect.bisect_left(ladder, value)
        if hi == 0:
            return 0
        if hi == len(ladder):
            return len(ladder) - 1
        below = abs(math.log2(ladder[hi - 1] / value))
        above = abs(math.log2(ladder[hi] / value))
        # <= keeps the full scan's tie-break: lowest rung wins a tie.
        return hi - 1 if below <= above else hi


@functools.lru_cache(maxsize=64)
def _ladder_is_sorted(ladder: tuple) -> bool:
    return all(a <= b for a, b in zip(ladder, ladder[1:]))


def changed_dimensions(
    before: WorkloadDescriptor, after: WorkloadDescriptor
) -> tuple[str, ...]:
    """The dimensions on which two workloads differ, canonical order.

    Pure value comparison — consumes no RNG — so the SA loop can label
    each mutation for the observatory without perturbing the search.
    Any difference in the request vector reports as ``msg_pattern``.
    """
    raw_before = SearchSpace._to_raw(before)
    raw_after = SearchSpace._to_raw(after)
    changed = [
        dimension
        for dimension in ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS
        if raw_before[dimension] != raw_after[dimension]
    ]
    if raw_before["msg_sizes_bytes"] != raw_after["msg_sizes_bytes"]:
        changed.append(PATTERN_DIMENSION)
    return tuple(changed)
