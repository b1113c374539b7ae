"""The hardware-facing workload descriptor.

This is the contract between Collie's search space (:mod:`repro.core.space`)
and the performance model (:mod:`repro.hardware.model`): one value per
search dimension, in verbs terms.  Field names follow Table 2's columns
(Direction, Transport, MTU, WQE, SGE, WQ depth, Message Pattern, # of QPs)
plus the memory-allocation and host-topology dimensions of §4.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional

from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType
from repro.verbs.wr import WQE_BASE_BYTES, WQE_SEGMENT_BYTES

#: "Small" and "large" message thresholds used throughout Table 2
#: (``mix of <=1KB & >=64KB``).
SMALL_MESSAGE_BYTES = 1024
LARGE_MESSAGE_BYTES = 64 * 1024


class Direction(enum.Enum):
    """Traffic direction between the two hosts."""

    UNIDIRECTIONAL = "uni"
    BIDIRECTIONAL = "bi"

    #: Identity hashing, as :class:`~repro.verbs.constants.QPType`.
    __hash__ = object.__hash__


class SGLayout(enum.Enum):
    """How a request's bytes are spread across its SG entries.

    ``EVEN`` splits the message into equal entries; ``MIXED`` packs one
    large entry alongside small ones (metadata + tensor, the BytePS
    shape) — the within-WQE small/large mix that triggers anomaly #9,
    distinct from the *across-request* mix of anomaly #10.
    """

    EVEN = "even"
    MIXED = "mixed"

    #: Identity hashing, as :class:`~repro.verbs.constants.QPType`.
    __hash__ = object.__hash__


class Colocation(enum.Enum):
    """Whether client processes are co-located with the server host.

    ``MIXED_LOOPBACK`` reproduces the anomaly #13 scenario: the receiver
    simultaneously serves loopback traffic from a local worker and network
    traffic from the remote host.
    """

    REMOTE_ONLY = "remote"
    MIXED_LOOPBACK = "mixed_loopback"

    #: Identity hashing, as :class:`~repro.verbs.constants.QPType`.
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True)
class WorkloadDescriptor:
    """One point of Collie's four-dimensional search space, in verbs terms.

    * Dimension 1 (host topology): ``src_device``, ``dst_device``,
      ``colocation``;
    * Dimension 2 (memory allocation): ``mrs_per_qp``, ``mr_bytes``;
    * Dimension 3 (transport): ``qp_type``, ``opcode``, ``num_qps``,
      ``wqe_batch``, ``sge_per_wqe``, ``wq_depth``, ``direction``, ``mtu``;
    * Dimension 4 (message pattern): ``msg_sizes_bytes`` — the fixed-length
      request vector of §4.
    """

    qp_type: QPType = QPType.RC
    opcode: Opcode = Opcode.WRITE
    direction: Direction = Direction.UNIDIRECTIONAL
    mtu: int = 1024
    num_qps: int = 8
    wqe_batch: int = 1
    sge_per_wqe: int = 1
    wq_depth: int = 128
    msg_sizes_bytes: tuple[int, ...] = (65536,)
    mrs_per_qp: int = 1
    mr_bytes: int = 64 * 1024
    src_device: str = "numa0"
    dst_device: str = "numa0"
    colocation: Colocation = Colocation.REMOTE_ONLY
    sg_layout: SGLayout = SGLayout.EVEN
    #: Fraction of time the sender keeps the pipe full (1.0 = saturating,
    #: the paper's setting).  Lower values model request inter-arrival
    #: gaps — the search-space extension §8 defers; enabled via
    #: ``SearchSpace.for_subsystem(..., duty_cycles=(0.25, 0.5, 1.0))``.
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.opcode not in SUPPORTED_OPCODES[self.qp_type]:
            raise ValueError(
                f"{self.qp_type.value} does not support {self.opcode.value}"
            )
        if self.num_qps <= 0 or self.wqe_batch <= 0 or self.sge_per_wqe <= 0:
            raise ValueError("num_qps, wqe_batch and sge_per_wqe must be positive")
        if self.wq_depth <= 0 or self.mrs_per_qp <= 0 or self.mr_bytes <= 0:
            raise ValueError("wq_depth, mrs_per_qp and mr_bytes must be positive")
        if not self.msg_sizes_bytes:
            raise ValueError("message pattern must contain at least one request")
        if any(size <= 0 for size in self.msg_sizes_bytes):
            raise ValueError("message sizes must be positive")
        if self.mtu not in (256, 512, 1024, 2048, 4096):
            raise ValueError(f"{self.mtu} is not a valid RDMA path MTU")
        if self.qp_type is QPType.UD and self.max_msg_bytes > self.mtu:
            raise ValueError(
                f"UD messages are limited to one MTU "
                f"({self.max_msg_bytes} > {self.mtu})"
            )
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must lie in (0, 1], got {self.duty_cycle}"
            )

    # -- message-pattern statistics ------------------------------------------

    @property
    def avg_msg_bytes(self) -> float:
        return sum(self.msg_sizes_bytes) / len(self.msg_sizes_bytes)

    @property
    def min_msg_bytes(self) -> int:
        return min(self.msg_sizes_bytes)

    @property
    def max_msg_bytes(self) -> int:
        return max(self.msg_sizes_bytes)

    @property
    def has_small_messages(self) -> bool:
        return self.min_msg_bytes <= SMALL_MESSAGE_BYTES

    @property
    def has_large_messages(self) -> bool:
        return self.max_msg_bytes >= LARGE_MESSAGE_BYTES

    @property
    def mixes_small_and_large(self) -> bool:
        """Table 2's "mix of ≤1KB & ≥64KB" trigger feature (#9, #10)."""
        return self.has_small_messages and self.has_large_messages

    @property
    def small_message_fraction(self) -> float:
        small = sum(1 for s in self.msg_sizes_bytes if s <= SMALL_MESSAGE_BYTES)
        return small / len(self.msg_sizes_bytes)

    @property
    def large_message_fraction(self) -> float:
        large = sum(1 for s in self.msg_sizes_bytes if s >= LARGE_MESSAGE_BYTES)
        return large / len(self.msg_sizes_bytes)

    def packets_per_message(self, size: Optional[int] = None) -> float:
        """Wire packets for one message (averaged over the pattern)."""
        if size is not None:
            return max(1, math.ceil(size / self.mtu))
        return sum(
            max(1, math.ceil(s / self.mtu)) for s in self.msg_sizes_bytes
        ) / len(self.msg_sizes_bytes)

    # -- derived verbs-level quantities ------------------------------------

    @property
    def wqe_bytes(self) -> int:
        """PCIe bytes to fetch one send WQE."""
        return WQE_BASE_BYTES + WQE_SEGMENT_BYTES * self.sge_per_wqe

    @property
    def total_mrs(self) -> int:
        return self.num_qps * self.mrs_per_qp

    @property
    def total_outstanding_recv_wqes(self) -> int:
        """Receive WQEs kept posted across all QPs (the RX-cache working set)."""
        return self.num_qps * self.wq_depth

    @property
    def is_bidirectional(self) -> bool:
        return self.direction is Direction.BIDIRECTIONAL

    @property
    def uses_recv_wqes(self) -> bool:
        """Only SEND consumes responder receive WQEs (2-sided operation)."""
        return self.opcode is Opcode.SEND

    @property
    def has_loopback(self) -> bool:
        return self.colocation is Colocation.MIXED_LOOPBACK

    @property
    def sg_entry_mix(self) -> bool:
        """Whether individual WQEs carry both small and large SG entries.

        Requires a mixed layout, at least two entries to differ, and a
        message large enough that the large entry actually crosses the
        64KB line while the small ones stay under 1KB.
        """
        return (
            self.sg_layout is SGLayout.MIXED
            and self.sge_per_wqe >= 2
            and self.max_msg_bytes >= LARGE_MESSAGE_BYTES
        )

    def replace(self, **changes) -> "WorkloadDescriptor":
        """Return a copy with some fields changed (used by mutation/MFS)."""
        return dataclasses.replace(self, **changes)

    def summary(self) -> str:
        """One-line Table 2-style description."""
        pattern = ",".join(_human_bytes(s) for s in self.msg_sizes_bytes[:6])
        if len(self.msg_sizes_bytes) > 6:
            pattern += ",..."
        direction = "Bi-" if self.is_bidirectional else "Uni"
        return (
            f"{direction} {self.qp_type.value} {self.opcode.value} "
            f"mtu={self.mtu} qps={self.num_qps} wqe={self.wqe_batch} "
            f"sge={self.sge_per_wqe} wq={self.wq_depth} msgs=[{pattern}] "
            f"mrs={self.mrs_per_qp}x{_human_bytes(self.mr_bytes)} "
            f"{self.src_device}->{self.dst_device} {self.colocation.value}"
        )


def _human_bytes(size: int) -> str:
    if size >= 1024 * 1024 and size % (1024 * 1024) == 0:
        return f"{size // (1024 * 1024)}MB"
    if size >= 1024 and size % 1024 == 0:
        return f"{size // 1024}KB"
    return f"{size}B"
