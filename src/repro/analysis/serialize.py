"""JSON serialisation of search results.

Search campaigns are expensive (hours of simulated testbed time, and on
a real deployment hours of wall-clock); persisting reports lets the
analysis and debugging workflows (§7.3) run long after the search —
match an application workload against a saved MFS set, re-render tables,
diff campaigns.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.collie import SearchReport
from repro.core.mfs import (
    IntervalCondition,
    MembershipCondition,
    MinimalFeatureSet,
)
from repro.hardware.workload import (
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs.constants import Opcode, QPType

FORMAT_VERSION = 1


def _by_value(enum_type):
    """``enum_type(value)`` through a ``{value: member}`` dict.  A miss
    (an unknown or unhashable value) calls the enum itself, so its
    ``ValueError`` and message are unchanged."""
    members = {member.value: member for member in enum_type}

    def member(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum_type(value)

    return member


_QP_TYPE = _by_value(QPType)
_OPCODE = _by_value(Opcode)
_DIRECTION = _by_value(Direction)
_COLOCATION = _by_value(Colocation)
_SG_LAYOUT = _by_value(SGLayout)


def workload_to_dict(workload: WorkloadDescriptor) -> dict:
    return {
        "qp_type": workload.qp_type.value,
        "opcode": workload.opcode.value,
        "direction": workload.direction.value,
        "colocation": workload.colocation.value,
        "sg_layout": workload.sg_layout.value,
        "mtu": workload.mtu,
        "num_qps": workload.num_qps,
        "wqe_batch": workload.wqe_batch,
        "sge_per_wqe": workload.sge_per_wqe,
        "wq_depth": workload.wq_depth,
        "msg_sizes_bytes": list(workload.msg_sizes_bytes),
        "mrs_per_qp": workload.mrs_per_qp,
        "mr_bytes": workload.mr_bytes,
        "src_device": workload.src_device,
        "dst_device": workload.dst_device,
        "duty_cycle": workload.duty_cycle,
    }


#: A workload's fields in the order :func:`workload_to_dict` keys them
#: and :func:`workload_to_list` and :func:`workload_from_list` place
#: them.  It is the journal's v8 workload array
#: (:data:`repro.obs.schema.WORKLOAD_ARRAY`): a change here is a new
#: journal version.
WORKLOAD_FIELDS = (
    "qp_type", "opcode", "direction", "colocation", "sg_layout", "mtu",
    "num_qps", "wqe_batch", "sge_per_wqe", "wq_depth", "msg_sizes_bytes",
    "mrs_per_qp", "mr_bytes", "src_device", "dst_device", "duty_cycle",
)


def workload_to_list(workload: WorkloadDescriptor) -> list:
    """:func:`workload_to_dict`'s values, in :data:`WORKLOAD_FIELDS`
    order."""
    return [
        workload.qp_type.value,
        workload.opcode.value,
        workload.direction.value,
        workload.colocation.value,
        workload.sg_layout.value,
        workload.mtu,
        workload.num_qps,
        workload.wqe_batch,
        workload.sge_per_wqe,
        workload.wq_depth,
        list(workload.msg_sizes_bytes),
        workload.mrs_per_qp,
        workload.mr_bytes,
        workload.src_device,
        workload.dst_device,
        workload.duty_cycle,
    ]


def workload_from_list(values: list) -> WorkloadDescriptor:
    """The workload :func:`workload_to_list` wrote."""
    (qp_type, opcode, direction, colocation, sg_layout, mtu, num_qps,
     wqe_batch, sge_per_wqe, wq_depth, msg_sizes_bytes, mrs_per_qp,
     mr_bytes, src_device, dst_device, duty_cycle) = values
    return WorkloadDescriptor(
        qp_type=_QP_TYPE(qp_type),
        opcode=_OPCODE(opcode),
        direction=_DIRECTION(direction),
        colocation=_COLOCATION(colocation),
        sg_layout=_SG_LAYOUT(sg_layout),
        mtu=mtu,
        num_qps=num_qps,
        wqe_batch=wqe_batch,
        sge_per_wqe=sge_per_wqe,
        wq_depth=wq_depth,
        msg_sizes_bytes=tuple(msg_sizes_bytes),
        mrs_per_qp=mrs_per_qp,
        mr_bytes=mr_bytes,
        src_device=src_device,
        dst_device=dst_device,
        duty_cycle=duty_cycle,
    )


def workload_from_dict(data: dict) -> WorkloadDescriptor:
    return WorkloadDescriptor(
        qp_type=_QP_TYPE(data["qp_type"]),
        opcode=_OPCODE(data["opcode"]),
        direction=_DIRECTION(data["direction"]),
        colocation=_COLOCATION(data["colocation"]),
        sg_layout=_SG_LAYOUT(data.get("sg_layout", "even")),
        mtu=data["mtu"],
        num_qps=data["num_qps"],
        wqe_batch=data["wqe_batch"],
        sge_per_wqe=data["sge_per_wqe"],
        wq_depth=data["wq_depth"],
        msg_sizes_bytes=tuple(data["msg_sizes_bytes"]),
        mrs_per_qp=data["mrs_per_qp"],
        mr_bytes=data["mr_bytes"],
        src_device=data["src_device"],
        dst_device=data["dst_device"],
        duty_cycle=data.get("duty_cycle", 1.0),
    )


def mfs_to_dict(mfs: MinimalFeatureSet) -> dict:
    return {
        "symptom": mfs.symptom,
        "witness": workload_to_dict(mfs.witness),
        "intervals": [
            {"dimension": c.dimension, "low": c.low, "high": c.high}
            for c in mfs.intervals
        ],
        "memberships": [
            {"dimension": c.dimension, "allowed": list(c.allowed)}
            for c in mfs.memberships
        ],
        "requires_mix": mfs.requires_mix,
        "found_at_seconds": mfs.found_at_seconds,
        "probe_experiments": mfs.probe_experiments,
    }


def mfs_from_dict(data: dict) -> MinimalFeatureSet:
    return MinimalFeatureSet(
        symptom=data["symptom"],
        witness=workload_from_dict(data["witness"]),
        intervals=tuple(
            IntervalCondition(c["dimension"], c["low"], c["high"])
            for c in data["intervals"]
        ),
        memberships=tuple(
            MembershipCondition(c["dimension"], tuple(c["allowed"]))
            for c in data["memberships"]
        ),
        requires_mix=data["requires_mix"],
        found_at_seconds=data["found_at_seconds"],
        probe_experiments=data["probe_experiments"],
    )


def report_to_dict(report: SearchReport) -> dict:
    """Serialisable view of a search report (events summarised)."""
    return {
        "format_version": FORMAT_VERSION,
        "subsystem": report.subsystem_name,
        "counter_mode": report.counter_mode,
        "use_mfs": report.use_mfs,
        "elapsed_seconds": report.elapsed_seconds,
        "experiments": report.experiments,
        "skipped_points": report.skipped_points,
        "counter_ranking": list(report.counter_ranking),
        "anomalies": [mfs_to_dict(m) for m in report.anomalies],
        "first_hits": report.first_hit_times(),
    }


def save_report(report: SearchReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)


def load_anomalies(path: str) -> list[MinimalFeatureSet]:
    """Load the MFS set of a saved report (for the §7.3 workflows)."""
    with open(path) as handle:
        data = json.load(handle)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported report format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return [mfs_from_dict(m) for m in data["anomalies"]]
