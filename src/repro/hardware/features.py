"""Workload feature extraction for the rule gates and pressure counters.

Turns a :class:`~repro.hardware.workload.WorkloadDescriptor` evaluated on a
concrete subsystem into a flat feature vector: the raw search dimensions,
the derived verbs-level quantities (packets per message, WQE bytes), the
cache-model outputs (miss fractions), and the host/platform flags (strict
PCIe ordering, cross-socket paths).  Both the quirk gates
(:mod:`repro.hardware.rules`) and the diagnostic-counter pressures read
this vector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.hardware.caches import steady_state_miss_rate
from repro.hardware.workload import (
    LARGE_MESSAGE_BYTES,
    SMALL_MESSAGE_BYTES,
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs.constants import ROCE_HEADER_BYTES, Opcode
from repro.verbs.wr import WQE_BASE_BYTES, WQE_SEGMENT_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.model import BatchPlan
    from repro.hardware.subsystems import Subsystem


def extract_features(
    workload: WorkloadDescriptor, subsystem: "Subsystem"
) -> dict:
    """Compute the feature vector of a workload on a subsystem."""
    rnic = subsystem.rnic
    rxq = rnic.rx_wqe_cache
    src_path = subsystem.topology.dma_path(workload.src_device)
    dst_path = subsystem.topology.dma_path(workload.dst_device)

    # Receive-WQE cache paths only exist for 2-sided traffic.
    if workload.uses_recv_wqes:
        rxq_capacity_miss = rxq.capacity_miss(workload.total_outstanding_recv_wqes)
        rxq_burst_miss = rxq.burst_miss(workload.wq_depth, workload.wqe_batch)
    else:
        rxq_capacity_miss = 0.0
        rxq_burst_miss = 0.0

    qps_working_set = workload.num_qps * (2 if workload.is_bidirectional else 1)
    qpc_miss = steady_state_miss_rate(qps_working_set, rnic.qpc_cache_entries)
    mtt_miss = steady_state_miss_rate(workload.total_mrs, rnic.mtt_cache_entries)

    features: dict = {
        # raw transport dimensions
        "qp_type": workload.qp_type.value,
        "opcode": workload.opcode.value,
        "bidirectional": 1.0 if workload.is_bidirectional else 0.0,
        "mtu": float(workload.mtu),
        "num_qps": float(workload.num_qps),
        "total_qps": float(qps_working_set),
        "wqe_batch": float(workload.wqe_batch),
        "sge_per_wqe": float(workload.sge_per_wqe),
        "wq_depth": float(workload.wq_depth),
        # message pattern
        "avg_msg": workload.avg_msg_bytes,
        "min_msg": float(workload.min_msg_bytes),
        "max_msg": float(workload.max_msg_bytes),
        "avg_pkts_per_msg": workload.packets_per_message(),
        "small_frac": workload.small_message_fraction,
        "large_frac": workload.large_message_fraction,
        "mixes_small_and_large": 1.0 if workload.mixes_small_and_large else 0.0,
        "sg_entry_mix": 1.0 if workload.sg_entry_mix else 0.0,
        "sg_layout": workload.sg_layout.value,
        # memory allocation
        "mrs_per_qp": float(workload.mrs_per_qp),
        "total_mrs": float(workload.total_mrs),
        "mr_bytes": float(workload.mr_bytes),
        # derived cache metrics
        "rxq_capacity_miss": rxq_capacity_miss,
        "rxq_burst_miss": rxq_burst_miss,
        "qpc_miss": qpc_miss,
        "mtt_miss": mtt_miss,
        # load-shape aggregates used by the packet-processing quirks
        "short_req_outstanding": (
            workload.num_qps * workload.wqe_batch * workload.small_message_fraction
        ),
        "wqe_outstanding_bytes": float(
            workload.num_qps * workload.wqe_batch * workload.wqe_bytes
        ),
        # host topology and platform flags
        "src_device": workload.src_device,
        "dst_device": workload.dst_device,
        "crosses_socket": 1.0
        if (src_path.crosses_socket or dst_path.crosses_socket)
        else 0.0,
        "via_root_complex": 1.0
        if (src_path.via_root_complex or dst_path.via_root_complex)
        else 0.0,
        # The data *sink* sits behind a root-complex detour: the forward
        # direction's destination always counts; with bidirectional
        # traffic the source memory is the reverse direction's sink.
        "sink_via_root_complex": 1.0
        if (
            dst_path.via_root_complex
            or (workload.is_bidirectional and src_path.via_root_complex)
        )
        else 0.0,
        "uses_gpu_memory": 1.0
        if (src_path.device.kind == "gpu" or dst_path.device.kind == "gpu")
        else 0.0,
        "loopback": 1.0 if workload.has_loopback else 0.0,
        "duty_cycle": workload.duty_cycle,
        "strict_ordering": 0.0 if subsystem.pcie.relaxed_ordering else 1.0,
        "weak_cross_socket": 1.0 if subsystem.weak_cross_socket else 0.0,
        "loopback_unlimited": 0.0 if rnic.loopback_rate_limited else 1.0,
    }
    return features




# -- batched extraction: one feature matrix per batch ------------------------

#: The keys of :func:`extract_features`, in its order.
FEATURE_NAMES = (
    "qp_type", "opcode", "bidirectional", "mtu", "num_qps", "total_qps",
    "wqe_batch", "sge_per_wqe", "wq_depth", "avg_msg", "min_msg", "max_msg",
    "avg_pkts_per_msg", "small_frac", "large_frac", "mixes_small_and_large",
    "sg_entry_mix", "sg_layout", "mrs_per_qp", "total_mrs", "mr_bytes",
    "rxq_capacity_miss", "rxq_burst_miss", "qpc_miss", "mtt_miss",
    "short_req_outstanding", "wqe_outstanding_bytes", "src_device",
    "dst_device", "crosses_socket", "via_root_complex",
    "sink_via_root_complex", "uses_gpu_memory", "loopback", "duty_cycle",
    "strict_ordering", "weak_cross_socket", "loopback_unlimited",
)

#: The string-valued features; a category-table row carries their values.
CATEGORICAL_FEATURES = (
    "qp_type", "opcode", "sg_layout", "src_device", "dst_device"
)

#: Row of each numeric feature in the batched feature matrix.
FEATURE_ROWS = {
    name: row for row, name in enumerate(
        n for n in FEATURE_NAMES if n not in CATEGORICAL_FEATURES
    )
}

#: The leading columns of a category-table row: the six flag features a
#: categorical combination decides (feature-matrix order), the two flags
#: the other features read, and the two DMA-path bandwidths.
CATEGORY_FEATURES = (
    "bidirectional", "crosses_socket", "via_root_complex",
    "sink_via_root_complex", "uses_gpu_memory", "loopback",
    "mixed_sg_layout", "uses_recv", "src_bw", "dst_bw",
)


def category_features(topology, key: tuple) -> tuple[tuple, tuple]:
    """One categorical combination's feature values, computed once.

    ``key`` is ``(qp_type, opcode, direction, colocation, sg_layout,
    src_device, dst_device)``.  Returns its ``CATEGORICAL_FEATURES``
    values and its ``CATEGORY_FEATURES`` columns, as
    :func:`extract_features` derives them.
    """
    qp_type, opcode, direction, colocation, sg_layout, src, dst = key
    source = topology.dma_path(src)
    sink = topology.dma_path(dst)
    bidi = direction is Direction.BIDIRECTIONAL
    return (qp_type.value, opcode.value, sg_layout.value, src, dst), (
        bidi,
        source.crosses_socket or sink.crosses_socket,
        source.via_root_complex or sink.via_root_complex,
        # The sink, and with bidirectional traffic the source too.
        sink.via_root_complex or (bidi and source.via_root_complex),
        source.device.kind == "gpu" or sink.device.kind == "gpu",
        colocation is Colocation.MIXED_LOOPBACK,
        sg_layout is SGLayout.MIXED,
        opcode is Opcode.SEND,
        source.bandwidth_gbps,
        sink.bandwidth_gbps,
    )


def _pattern(sizes: tuple, mtu: int) -> tuple:
    """Message-pattern columns of one (sizes, MTU) pair.

    ``avg_msg``, ``min_msg``, ``max_msg``, ``avg_pkts_per_msg``,
    ``small_frac``, ``large_frac``, ``mixes_small_and_large`` and the wire
    bytes per message: the integer sums of the
    :class:`WorkloadDescriptor` properties the scalar path calls, each
    over its count once.  Sizes are positive, so ``-(-size // mtu)`` is
    ``max(1, math.ceil(size / mtu))``.
    """
    count = len(sizes)
    total = sum(sizes)
    packets = sum([-(-size // mtu) for size in sizes])
    low, high = min(sizes), max(sizes)
    return (
        total / count,
        low,
        high,
        packets / count,
        sum([size <= SMALL_MESSAGE_BYTES for size in sizes]) / count,
        sum([size >= LARGE_MESSAGE_BYTES for size in sizes]) / count,
        low <= SMALL_MESSAGE_BYTES and high >= LARGE_MESSAGE_BYTES,
        (total + packets * ROCE_HEADER_BYTES) / count,
    )


def extract_feature_columns(
    plan: "BatchPlan", workloads: Sequence[WorkloadDescriptor]
) -> tuple:
    """Batched :func:`extract_features`: one float64 matrix for the batch.

    Returns ``(features, categories, wire_per_msg, rows)``: ``features``
    has one row per numeric feature (``FEATURE_ROWS``), one column per
    point; ``categories`` holds each point's row of the category table of
    ``plan`` (a :class:`~repro.hardware.model.BatchPlan`), as a column;
    ``wire_per_msg`` is the wire bytes per message the solve prices;
    ``rows`` indexes each point's category.  Every value comes from the
    scalar path's IEEE operations in its order, so it is bit-identical to
    the scalar feature dict's.  The (message sizes, MTU) pattern memo
    lives for this call only.
    """
    index = plan.index
    patterns: dict = {}
    rows = []
    fields = []
    for w in workloads:
        key = (
            w.qp_type, w.opcode, w.direction, w.colocation, w.sg_layout,
            w.src_device, w.dst_device,
        )
        row = index.get(key)
        if row is None:
            row = plan.add_category(key)
        rows.append(row)
        pattern_key = (w.msg_sizes_bytes, w.mtu)
        pattern = patterns.get(pattern_key)
        if pattern is None:
            pattern = patterns[pattern_key] = _pattern(*pattern_key)
        fields.append((
            w.mtu, w.num_qps, w.wqe_batch, w.sge_per_wqe, w.wq_depth,
            *pattern[:7], w.mrs_per_qp, w.mr_bytes, w.duty_cycle, pattern[7],
        ))
    raw = np.array(fields, dtype=np.float64).T
    num_qps, wqe_batch, sge, wq_depth = raw[1:5]
    categories = plan.table[rows].T
    uses_recv = categories[7]
    rnic = plan.rnic
    rxq = rnic.rx_wqe_cache

    features = np.empty((len(FEATURE_ROWS), len(rows)))
    features[0] = categories[0]  # bidirectional
    features[1:3] = raw[0:2]  # mtu, num_qps
    features[3] = num_qps * (1.0 + categories[0])  # total_qps
    features[4:14] = raw[2:12]  # wqe_batch .. mixes_small_and_large
    features[14] = (  # sg_entry_mix
        categories[6] * (sge >= 2.0) * (raw[7] >= LARGE_MESSAGE_BYTES)
    )
    features[15] = raw[12]  # mrs_per_qp
    features[16] = num_qps * raw[12]  # total_mrs
    features[17] = raw[13]  # mr_bytes
    # Receive-WQE cache paths only exist for 2-sided traffic; every
    # working set below holds at least one entry.
    features[18] = uses_recv * np.maximum(
        0.0, 1.0 - rxq.total_entries / (num_qps * wq_depth)
    )
    features[19] = (
        uses_recv
        * (wq_depth > rxq.per_qp_entries)
        * np.maximum(0.0, 1.0 - rxq.prefetch_window / wqe_batch)
    )
    for row, working_set, capacity in (
        (20, features[3], rnic.qpc_cache_entries),
        (21, features[16], rnic.mtt_cache_entries),
    ):
        features[row] = (
            np.maximum(0.0, 1.0 - capacity / working_set)
            if capacity > 0 else 1.0
        )
    outstanding = num_qps * wqe_batch
    features[22] = outstanding * raw[9]  # short_req_outstanding
    features[23] = outstanding * (  # wqe_outstanding_bytes
        WQE_BASE_BYTES + WQE_SEGMENT_BYTES * sge
    )
    features[24:29] = categories[1:6]  # crosses_socket .. loopback
    features[29] = raw[14]  # duty_cycle
    features[30:33] = plan.constants
    return features, categories, raw[15], rows


def feature_dict(names: tuple, values: list) -> dict:
    """One point's feature dict, in scalar key order.

    ``names`` are its ``CATEGORICAL_FEATURES`` values and ``values`` its
    column of the feature matrix as Python floats.
    """
    qp_type, opcode, sg_layout, src, dst = names
    return dict(zip(FEATURE_NAMES, (
        qp_type, opcode, *values[:15], sg_layout, *values[15:24], src, dst,
        *values[24:],
    )))
