"""The workload engine: search-space points → RDMA traffic.

The paper's engine (§4, "Workload engine") takes a test point's settings
as input parameters, sets up connections over out-of-band TCP, and
generates traffic with the requested memory/transport/message shape.
This implementation does the same against the software verbs layer:

* **setup** really allocates PDs, registers ``mrs_per_qp × num_qps``
  memory regions on the requested memory devices, creates and connects
  QPs of the requested type — so malformed placements and illegal
  transport combinations fail exactly where they would on a testbed;
* **functional burst**: a scaled-down slice of the workload (a few QPs,
  a few batches) is pushed through the byte-moving datapath, verifying
  WQE shapes, SG-list bounds and completion plumbing;
* **measurement** hands the full-scale descriptor to the steady-state
  model, which returns the counter samples the monitor consumes.

Scaling the functional burst down (rather than posting millions of WQEs)
keeps experiments fast; the *performance* consequences of full scale are
the model's job, while the *semantic* validity of the workload shape is
checked here for real.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.host import Host
from repro.hardware.model import Measurement, SteadyStateModel
from repro.hardware.subsystems import Subsystem
from repro.hardware.workload import WorkloadDescriptor
from repro.verbs.constants import MTU, AccessFlags, Opcode, QPType
from repro.verbs.datapath import DataPath
from repro.verbs.fabric import Fabric
from repro.verbs.device import QPNumberAllocator
from repro.verbs.qp import QPCapabilities
from repro.hardware.workload import SGLayout
from repro.verbs.wr import (
    RecvWorkRequest,
    SendWorkRequest,
    build_sg_list,
    chunk_message,
    mixed_entry_lengths,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache

#: Scale caps for the functional burst.
_FUNCTIONAL_MAX_QPS = 4
_FUNCTIONAL_MAX_BATCHES = 2
_FUNCTIONAL_MAX_MSG = 64 * 1024
_FUNCTIONAL_MAX_WQ = 64


@dataclasses.dataclass
class SetupFootprint:
    """What setup created — drives the experiment's simulated duration."""

    qps_created: int
    mrs_registered: int
    functional_messages: int


class WorkloadEngine:
    """Runs experiments for one subsystem."""

    def __init__(
        self,
        subsystem: Subsystem,
        noise: float = 0.02,
        cache: Optional["EvalCache"] = None,
        victim: Optional[WorkloadDescriptor] = None,
        victim_share: float = 0.5,
    ) -> None:
        self.subsystem = subsystem
        #: Isolation mode: a pinned victim tenant makes every measured
        #: point an *attacker* co-running next to it — the model becomes
        #: a :class:`~repro.hardware.coexist.CoRunModel` and
        #: measurements describe the victim under that neighbor.  With
        #: no victim the construction is byte-identical to before.
        self.victim = victim
        self.victim_share = victim_share
        if victim is not None:
            from repro.hardware.coexist import CoRunModel

            self.model: SteadyStateModel = CoRunModel(
                subsystem,
                victim,
                victim_share=victim_share,
                noise=noise,
                cache=cache,
            )
        else:
            self.model = SteadyStateModel(subsystem, noise=noise, cache=cache)

    @property
    def cache(self) -> Optional["EvalCache"]:
        return self.model.cache

    def measure(
        self,
        workload: WorkloadDescriptor,
        rng: Optional[np.random.Generator] = None,
        functional_check: bool = True,
        phase: str = "search",
    ) -> Measurement:
        """Set up, optionally validate functionally, and measure.

        Memoized points skip the functional burst: the burst is
        deterministic validation (no RNG draws) and the point already
        passed it when its cache entry was created, so skipping changes
        no observable — only real wall time.
        """
        cache = self.cache
        if functional_check and not (
            cache is not None
            and cache.contains(self.model.subsystem, workload)
        ):
            self.functional_burst(workload)
        return self.model.evaluate(workload, rng=rng, phase=phase)

    # -- functional validation ---------------------------------------------

    def functional_burst(self, workload: WorkloadDescriptor) -> SetupFootprint:
        """Push a scaled slice of the workload through the byte datapath.

        Returns the footprint of what ran.  Raises a verbs error if the
        workload shape is illegal (bad opcode for the transport, SG lists
        exceeding caps, messages that cannot fit receive buffers...).
        """
        sub = self.subsystem
        # One fresh QPN allocator per burst, shared by both hosts: QP
        # numbering is reproducible regardless of how many experiments
        # ran earlier in this process (and of process fan-out), while
        # staying alias-free within the burst's fabric.
        qpns = QPNumberAllocator()
        host_a = Host(f"{sub.name}-a", sub.topology, qpn_allocator=qpns)
        host_b = Host(f"{sub.name}-b", sub.topology, qpn_allocator=qpns)
        fabric = Fabric()
        fabric.attach(host_a.context)
        fabric.attach(host_b.context)
        datapath = DataPath(fabric)

        qps = min(workload.num_qps, _FUNCTIONAL_MAX_QPS)
        batches = min(_FUNCTIONAL_MAX_BATCHES, 2)
        wq_depth = min(workload.wq_depth, _FUNCTIONAL_MAX_WQ)
        # The functional slice needs room for one batch in flight.
        wq_depth = max(wq_depth, workload.wqe_batch)
        mtu = MTU.from_bytes(workload.mtu)
        sizes = [min(s, _FUNCTIONAL_MAX_MSG) for s in workload.msg_sizes_bytes]
        mr_bytes = max(
            min(workload.mr_bytes, _FUNCTIONAL_MAX_MSG * 2), max(sizes) + 4096
        )

        cap = QPCapabilities(
            max_send_wr=max(wq_depth, 1),
            max_recv_wr=max(wq_depth, 1),
            max_send_sge=max(workload.sge_per_wqe, 16),
            max_recv_sge=16,
        )
        messages = 0
        for _ in range(qps):
            pd_a = host_a.context.alloc_pd()
            pd_b = host_b.context.alloc_pd()
            cq_a = host_a.context.create_cq(4096)
            cq_b = host_b.context.create_cq(4096)
            qp_a = host_a.context.create_qp(
                pd_a, workload.qp_type, cq_a, cq_a, cap
            )
            qp_b = host_b.context.create_qp(
                pd_b, workload.qp_type, cq_b, cq_b, cap
            )
            if workload.qp_type is QPType.UD:
                fabric.activate_ud(qp_a, mtu)
                fabric.activate_ud(qp_b, mtu)
            else:
                fabric.connect(qp_a, qp_b, mtu)
            mr_a = pd_a.reg_mr(
                mr_bytes, AccessFlags.all_remote(), device=workload.src_device
            )
            mr_b = pd_b.reg_mr(
                mr_bytes, AccessFlags.all_remote(), device=workload.dst_device
            )
            messages += self._drive_pair(
                datapath, workload, qp_a, qp_b, mr_a, mr_b, sizes, batches
            )
        return SetupFootprint(
            qps_created=2 * qps,
            mrs_registered=2 * qps,
            functional_messages=messages,
        )

    def _drive_pair(
        self, datapath, workload, qp_a, qp_b, mr_a, mr_b, sizes, batches
    ) -> int:
        """Post and complete ``batches`` WQE batches on one QP pair."""
        from repro.verbs.constants import GRH_BYTES

        messages = 0
        for _ in range(batches):
            batch = []
            for i in range(min(workload.wqe_batch, len(sizes) * 2)):
                size = sizes[i % len(sizes)]
                if workload.sg_layout is SGLayout.MIXED:
                    lengths = mixed_entry_lengths(size, workload.sge_per_wqe)
                else:
                    lengths = chunk_message(size, 1, workload.sge_per_wqe)[0]
                sg_list = build_sg_list(lengths, mr_a.addr, mr_a.lkey)
                if workload.opcode is Opcode.SEND:
                    recv_capacity = size + (
                        GRH_BYTES if workload.qp_type is QPType.UD else 0
                    )
                    qp_b.post_recv(
                        RecvWorkRequest(
                            sg_list=build_sg_list(
                                [recv_capacity], mr_b.addr, mr_b.lkey
                            )
                        )
                    )
                    wr = SendWorkRequest(
                        opcode=Opcode.SEND,
                        sg_list=sg_list,
                        ah=qp_b.qp_num
                        if workload.qp_type is QPType.UD
                        else None,
                    )
                else:
                    wr = SendWorkRequest(
                        opcode=workload.opcode,
                        sg_list=sg_list,
                        remote_addr=mr_b.addr,
                        rkey=mr_b.rkey,
                    )
                batch.append(wr)
            qp_a.post_send_batch(batch)
            datapath.process(qp_a)
            messages += len(batch)
            for wc in qp_a.send_cq.drain():
                if not wc.ok:
                    raise AssertionError(
                        f"functional burst completion failed: {wc.status.value}"
                    )
        return messages

    # -- experiment cost ------------------------------------------------------

    def setup_seconds(self, workload: WorkloadDescriptor) -> float:
        """Simulated setup cost of one experiment.

        The paper reports 20–60 s per experiment, "mostly depending on the
        number of QPs to create and the number of MRs to register" (§5).
        """
        base = 12.0
        qp_cost = 0.002 * workload.num_qps * (
            2 if workload.is_bidirectional else 1
        )
        mr_cost = 0.0002 * workload.total_mrs
        return min(52.0, base + qp_cost + mr_cost)

    def measurement_seconds(self) -> float:
        """Four per-second counter fetches plus stabilisation (§6)."""
        return 8.0
