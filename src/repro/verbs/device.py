"""Devices and contexts: the top-level verbs objects.

A :class:`Device` models one RNIC port with its capability limits;
``open()`` yields a :class:`Context` from which PDs, CQs and QPs are
created, mirroring ``ibv_open_device`` / ``ibv_alloc_pd`` / …
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Optional

from repro.verbs.cq import CompletionQueue
from repro.verbs.exceptions import VerbsError
from repro.verbs.memory import MemoryAllocator
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QPCapabilities, QueuePair
from repro.verbs.constants import QPType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.host import Host


@dataclasses.dataclass(frozen=True)
class DeviceAttributes:
    """``struct ibv_device_attr`` subset: capability ceilings of the RNIC.

    Defaults follow ConnectX-class limits; Collie's search space bounds
    (20K QPs, 200K MRs — paper §4) sit comfortably inside them.
    """

    max_qp: int = 262_144
    max_mr: int = 1_048_576
    max_cq: int = 65_536
    max_cqe: int = 4_194_303
    max_qp_wr: int = 32_768
    max_sge: int = 30
    max_mr_size: int = 2 ** 46


class QPNumberAllocator:
    """Explicit QP-number state for a group of contexts.

    Real RoCE scopes QPNs per device and disambiguates by GID; sharing
    one allocator across every context of a fabric gives the same
    no-aliasing property without modelling GIDs.  Callers that need
    *reproducible* numbering independent of process history — anything
    running under process fan-out — pass a fresh allocator instead of
    relying on the process-global default.
    """

    FIRST_QPN = 0x11

    def __init__(self, start: int = FIRST_QPN) -> None:
        self._numbers = itertools.count(start)

    def next(self) -> int:
        return next(self._numbers)


#: Default allocator for bare contexts (``Device().open()``): process-
#: global, so ad-hoc contexts never alias — at the cost of numbering that
#: depends on everything the process created before.  State-sensitive
#: paths pass their own allocator.
_GLOBAL_QP_NUMBERS = QPNumberAllocator()


class Device:
    """One RNIC as enumerated by ``ibv_get_device_list``."""

    def __init__(
        self,
        name: str = "rxe0",
        attributes: Optional[DeviceAttributes] = None,
    ) -> None:
        self.name = name
        self.attributes = attributes or DeviceAttributes()

    def open(
        self,
        host: Optional["Host"] = None,
        qpn_allocator: Optional[QPNumberAllocator] = None,
    ) -> "Context":
        """Open the device, optionally attaching it to a simulated host."""
        return Context(self, host=host, qpn_allocator=qpn_allocator)

    def __repr__(self) -> str:
        return f"Device({self.name!r})"


class Context:
    """``struct ibv_context``: the handle all other verbs objects hang off."""

    def __init__(
        self,
        device: Device,
        host: Optional["Host"] = None,
        qpn_allocator: Optional[QPNumberAllocator] = None,
    ) -> None:
        self.device = device
        self.host = host
        self._qpn_allocator = qpn_allocator or _GLOBAL_QP_NUMBERS
        self.allocator = MemoryAllocator()
        self._pd_handles = itertools.count(1)
        self._cq_handles = itertools.count(1)
        self.pds: list[ProtectionDomain] = []
        self.cqs: list[CompletionQueue] = []
        self.qps: dict[int, QueuePair] = {}
        self.srqs: list = []

    def alloc_pd(self) -> ProtectionDomain:
        """``ibv_alloc_pd``."""
        pd = ProtectionDomain(self, next(self._pd_handles))
        self.pds.append(pd)
        return pd

    def create_cq(self, cqe: int) -> CompletionQueue:
        """``ibv_create_cq``."""
        if len(self.cqs) >= self.device.attributes.max_cq:
            raise VerbsError("device CQ limit reached")
        if cqe > self.device.attributes.max_cqe:
            raise VerbsError(
                f"requested {cqe} CQEs exceeds device max "
                f"{self.device.attributes.max_cqe}"
            )
        cq = CompletionQueue(cqe, handle=next(self._cq_handles))
        self.cqs.append(cq)
        return cq

    def create_srq(self, attrs=None) -> "SharedReceiveQueue":
        """``ibv_create_srq``: allocate a shared receive queue."""
        from repro.verbs.srq import SharedReceiveQueue

        srq = SharedReceiveQueue(attrs, handle=len(self.srqs) + 1)
        self.srqs.append(srq)
        return srq

    def create_qp(
        self,
        pd: ProtectionDomain,
        qp_type: QPType,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        cap: Optional[QPCapabilities] = None,
        srq=None,
    ) -> QueuePair:
        """``ibv_create_qp``: allocate a QP in RESET state.

        Passing ``srq`` attaches the QP to a shared receive queue; its
        own receive queue is then unused (verbs spec).
        """
        cap = cap or QPCapabilities()
        attrs = self.device.attributes
        if len(self.qps) >= attrs.max_qp:
            raise VerbsError(f"device QP limit {attrs.max_qp} reached")
        if cap.max_send_wr > attrs.max_qp_wr or cap.max_recv_wr > attrs.max_qp_wr:
            raise VerbsError(
                f"work queue depth exceeds device max_qp_wr={attrs.max_qp_wr}"
            )
        if cap.max_send_sge > attrs.max_sge or cap.max_recv_sge > attrs.max_sge:
            raise VerbsError(f"SGE capability exceeds device max_sge={attrs.max_sge}")
        if srq is not None and srq not in self.srqs:
            raise VerbsError("SRQ belongs to a different context")
        qp = QueuePair(
            pd, qp_type, send_cq, recv_cq, cap, self._qpn_allocator.next(),
            srq=srq,
        )
        self.qps[qp.qp_num] = qp
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """``ibv_destroy_qp``."""
        self.qps.pop(qp.qp_num, None)

    def lookup_qp(self, qp_num: int) -> Optional[QueuePair]:
        return self.qps.get(qp_num)

    @property
    def qp_count(self) -> int:
        return len(self.qps)

    @property
    def mr_count(self) -> int:
        return sum(pd.mr_count for pd in self.pds)

    @property
    def pinned_pages(self) -> int:
        return sum(pd.pinned_pages for pd in self.pds)
