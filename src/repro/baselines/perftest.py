"""A Perftest-style workload generator (§7.1's comparison baseline).

Perftest (``ib_send_bw``, ``ib_write_bw``, ``ib_read_bw``) repeatedly
sends fixed-size messages with single-SGE work requests posted one at a
time.  Flags give the tester message size (``-s``), QP count (``-q``),
queue depths (``--tx-depth``/``--rx-depth``), MTU (``-m``) and
bidirectional mode (``-b``); there is no batching control, no SG-list
shaping, no mixed message patterns, no memory-region sweep, and no GPU
or NUMA placement in the classic tool.

The generator enumerates that restricted space so the benchmark harness
can measure how many of the 18 anomalies the standard tooling can
reproduce at all (the paper: 4 of 18, "with very careful parameter
tuning").
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from repro.cluster.testbed import Testbed
from repro.core.monitor import AnomalyMonitor
from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import Colocation, Direction, WorkloadDescriptor
from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType

#: Flag values a careful tester would sweep.
MESSAGE_SIZES = (64, 512, 1024, 4096, 65536, 1048576, 4194304)
QP_COUNTS = (1, 4, 16, 32, 64, 128, 512, 1024)
TX_DEPTHS = (16, 128, 512)
MTUS = (1024, 4096)


class PerftestGenerator:
    """Enumerates and runs the Perftest-expressible workload space."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        noise: float = 0.02,
    ) -> None:
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.testbed = Testbed(subsystem, noise=noise)
        self.monitor = AnomalyMonitor(subsystem)

    def workloads(self) -> Iterator[WorkloadDescriptor]:
        """Every point the tool can express, as a workload descriptor."""
        combos = itertools.product(
            (QPType.RC, QPType.UC, QPType.UD),
            (Opcode.SEND, Opcode.WRITE, Opcode.READ),
            (Direction.UNIDIRECTIONAL, Direction.BIDIRECTIONAL),
            (Colocation.REMOTE_ONLY, Colocation.MIXED_LOOPBACK),
            MTUS,
            MESSAGE_SIZES,
            QP_COUNTS,
            TX_DEPTHS,
        )
        for qp_type, opcode, direction, coloc, mtu, size, qps, depth in combos:
            if opcode not in SUPPORTED_OPCODES[qp_type]:
                continue
            if qp_type is QPType.UD and size > mtu:
                continue
            yield WorkloadDescriptor(
                qp_type=qp_type,
                opcode=opcode,
                direction=direction,
                colocation=coloc,
                mtu=mtu,
                num_qps=qps,
                wqe_batch=1,  # perftest posts WRs one by one
                sge_per_wqe=1,  # single-SGE requests only
                wq_depth=depth,
                msg_sizes_bytes=(size,),  # fixed-size traffic
                mrs_per_qp=1,  # one buffer per QP
                mr_bytes=max(size, 4096),
            )

    def sweep(self, seed: int = 0, limit: int = None) -> dict:
        """Run the whole space; returns ground-truth tags reproduced.

        ``limit`` bounds the number of experiments for quick runs; the
        full space is a few thousand points.
        """
        rng = np.random.default_rng(seed)
        found: dict = {}
        points: Iterator[WorkloadDescriptor] = self.workloads()
        if limit is not None:
            points = itertools.islice(points, limit)
        for workload in points:
            measurement = self.testbed.run(workload, rng=rng).measurement
            if self.monitor.classify(measurement).is_anomalous:
                for tag in measurement.tags:
                    found.setdefault(tag, workload)
        return found
