"""The scalar solve reads its combination's row of the compiled plan.

``SteadyStateModel._solve`` takes its categorical features, DMA-path
bandwidths and rule gate from the subsystem's ``BatchPlan`` row instead
of deriving them per point, the topology resolves each device's DMA
path once, and the PCIe link its byte rate once.  Each test keeps the
per-point derivation it replaced as a test-local reference: the feature
vector read off the topology, the full rule-table walk, and the DMA
path resolved from the device.
"""

import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evalcache import CachedSolve, subsystem_fingerprint
from repro.core.space import SearchSpace
from repro.hardware.caches import steady_state_miss_rate
from repro.hardware.features import _pattern
from repro.hardware.model import SteadyStateModel, batch_plan
from repro.hardware.pcie import PCIeLink
from repro.hardware.rules import fired_rules
from repro.hardware.subsystems import get_subsystem
from repro.hardware.topology import DMAPath
from repro.hardware.workload import (
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs import constants
from repro.verbs.constants import Opcode, QPType
from repro.workloads.appendix import settings_for_subsystem

LETTERS = "ABCDEFGH"


# -- the reference: derived per point -------------------------------------------


def reference_dma_path(topology, device_name):
    dev = topology.device(device_name)
    latency = topology.local_dma_latency_ns
    bandwidth = float("inf")
    crosses_socket = dev.socket != topology.rnic_socket
    via_root_complex = False
    if crosses_socket:
        latency += topology.smp_extra_latency_ns
        bandwidth = min(bandwidth, topology.smp_bandwidth_gbps)
    if dev.kind == "gpu":
        latency += topology.gpu_bridge_latency_ns
        if not (dev.same_bridge_as_rnic and topology.acsctl_correct):
            via_root_complex = True
            latency += topology.root_complex_extra_latency_ns
            bandwidth = min(bandwidth, topology.root_complex_bandwidth_gbps)
    return DMAPath(
        device=dev,
        latency_ns=latency,
        bandwidth_gbps=bandwidth,
        crosses_socket=crosses_socket,
        via_root_complex=via_root_complex,
    )


def reference_features(workload, subsystem):
    """The feature vector as read off the workload and the topology."""
    rnic = subsystem.rnic
    rxq = rnic.rx_wqe_cache
    src_path = reference_dma_path(subsystem.topology, workload.src_device)
    dst_path = reference_dma_path(subsystem.topology, workload.dst_device)
    if workload.uses_recv_wqes:
        rxq_capacity_miss = rxq.capacity_miss(
            workload.total_outstanding_recv_wqes
        )
        rxq_burst_miss = rxq.burst_miss(workload.wq_depth, workload.wqe_batch)
    else:
        rxq_capacity_miss = 0.0
        rxq_burst_miss = 0.0
    qps_working_set = workload.num_qps * (2 if workload.is_bidirectional else 1)
    small = workload.small_message_fraction
    return {
        "qp_type": workload.qp_type.value,
        "opcode": workload.opcode.value,
        "bidirectional": 1.0 if workload.is_bidirectional else 0.0,
        "mtu": float(workload.mtu),
        "num_qps": float(workload.num_qps),
        "total_qps": float(qps_working_set),
        "wqe_batch": float(workload.wqe_batch),
        "sge_per_wqe": float(workload.sge_per_wqe),
        "wq_depth": float(workload.wq_depth),
        "avg_msg": workload.avg_msg_bytes,
        "min_msg": float(workload.min_msg_bytes),
        "max_msg": float(workload.max_msg_bytes),
        "avg_pkts_per_msg": workload.packets_per_message(),
        "small_frac": small,
        "large_frac": workload.large_message_fraction,
        "mixes_small_and_large": 1.0 if workload.mixes_small_and_large else 0.0,
        "sg_entry_mix": 1.0 if workload.sg_entry_mix else 0.0,
        "sg_layout": workload.sg_layout.value,
        "mrs_per_qp": float(workload.mrs_per_qp),
        "total_mrs": float(workload.total_mrs),
        "mr_bytes": float(workload.mr_bytes),
        "rxq_capacity_miss": rxq_capacity_miss,
        "rxq_burst_miss": rxq_burst_miss,
        "qpc_miss": steady_state_miss_rate(
            qps_working_set, rnic.qpc_cache_entries
        ),
        "mtt_miss": steady_state_miss_rate(
            workload.total_mrs, rnic.mtt_cache_entries
        ),
        "short_req_outstanding": workload.num_qps * workload.wqe_batch * small,
        "wqe_outstanding_bytes": float(
            workload.num_qps * workload.wqe_batch * workload.wqe_bytes
        ),
        "src_device": workload.src_device,
        "dst_device": workload.dst_device,
        "crosses_socket": 1.0
        if (src_path.crosses_socket or dst_path.crosses_socket) else 0.0,
        "via_root_complex": 1.0
        if (src_path.via_root_complex or dst_path.via_root_complex) else 0.0,
        "sink_via_root_complex": 1.0
        if (
            dst_path.via_root_complex
            or (workload.is_bidirectional and src_path.via_root_complex)
        ) else 0.0,
        "uses_gpu_memory": 1.0
        if (src_path.device.kind == "gpu" or dst_path.device.kind == "gpu")
        else 0.0,
        "loopback": 1.0 if workload.has_loopback else 0.0,
        "duty_cycle": workload.duty_cycle,
        "strict_ordering": 0.0 if subsystem.pcie.relaxed_ordering else 1.0,
        "weak_cross_socket": 1.0 if subsystem.weak_cross_socket else 0.0,
        "loopback_unlimited": 0.0 if rnic.loopback_rate_limited else 1.0,
    }


def reference_directions(model, workload, fired):
    """Each direction priced between the DMA paths of its devices."""
    tx_factor = math.prod(f.factor for f in fired if f.rule.side == "tx")
    rx_factor = math.prod(f.factor for f in fired if f.rule.side == "rx")
    topology = model.subsystem.topology
    src, dst = workload.src_device, workload.dst_device
    names_devices = [("fwd", src, dst)]
    if workload.is_bidirectional:
        names_devices.append(("rev", dst, src))
    pattern = _pattern(workload.msg_sizes_bytes, workload.mtu)
    return tuple(
        model._solve_one(
            workload, pattern, name,
            reference_dma_path(topology, sender).bandwidth_gbps,
            reference_dma_path(topology, receiver).bandwidth_gbps,
            tx_factor, rx_factor,
        )
        for name, sender, receiver in names_devices
    )


def reference_solve(model, workload):
    """Every input derived per point; the whole rule table walked."""
    subsystem = model.subsystem
    features = reference_features(workload, subsystem)
    fired = tuple(fired_rules(subsystem.rnic.rules, features))
    directions = reference_directions(model, workload, fired)
    return CachedSolve(
        directions=directions,
        fired=fired,
        features=features,
        ideal_counters=model._ideal_counters(
            workload, features, fired, directions
        ),
    )


# -- inputs ------------------------------------------------------------------------


def variant(letter, dropped, narrow):
    """The subsystem, or a ``dataclasses.replace`` copy with one rule
    removed (by index modulo the table) and, when ``narrow``, DMA paths
    narrower than the line rate (the presets' never bind)."""
    subsystem = get_subsystem(letter)
    if dropped is not None:
        rules = subsystem.rnic.rules
        index = dropped % len(rules)
        subsystem = dataclasses.replace(subsystem, rnic=dataclasses.replace(
            subsystem.rnic, rules=rules[:index] + rules[index + 1:],
        ))
    if narrow:
        subsystem = dataclasses.replace(subsystem, topology=dataclasses.replace(
            subsystem.topology, smp_bandwidth_gbps=12.0,
            root_complex_bandwidth_gbps=6.0, acsctl_correct=False,
        ))
    return subsystem


def walk(letter, seed, count):
    """Random restarts and mutation walks from the subsystem's
    Appendix A triggers, where the rule gates sit."""
    space = SearchSpace.for_subsystem(
        get_subsystem(letter), duty_cycles=(0.25, 0.5, 1.0)
    )
    rng = np.random.default_rng(seed)
    starts = [s.workload for s in settings_for_subsystem(letter)]
    points = []
    current = space.random(rng)
    while len(points) < count:
        if rng.random() < 0.1:
            current = (
                starts[int(rng.integers(len(starts)))]
                if starts and rng.random() < 0.5 else space.random(rng)
            )
        else:
            current = space.mutate(current, rng)
        points.append(current)
    return points


class TestPlanGatedSolve:
    @given(
        letter=st.sampled_from(LETTERS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dropped=st.one_of(st.none(), st.integers(0, 63)),
        narrow=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_equals_the_full_table_walk(
        self, letter, seed, dropped, narrow
    ):
        subsystem = variant(letter, dropped, narrow)
        model = SteadyStateModel(subsystem)
        fired_any = False
        for workload in walk(letter, seed, 60):
            expected = reference_solve(model, workload)
            solve = model._solve(workload, "search")
            assert repr(list(solve.features.items())) == repr(
                list(expected.features.items())
            )
            assert solve.fired == expected.fired
            assert repr(solve.fired) == repr(expected.fired)
            assert repr(solve) == repr(expected)
            assert solve == expected
            fired_any = fired_any or bool(solve.fired)
        # The plan's rows hold the rules their gates pass, in order.
        plan = batch_plan(subsystem)
        for passing, gate in zip(plan.passing, plan.gates.tolist()):
            table = subsystem.rnic.rules
            assert passing == tuple(r for r, g in zip(table, gate) if g)

    def test_walks_reach_the_gated_rules(self):
        """The property above is not vacuous: on F and H its walks fire
        rules through the gate."""
        for letter in "FH":
            model = SteadyStateModel(get_subsystem(letter))
            tags = {
                fired.tag
                for workload in walk(letter, 3, 400)
                for fired in model._solve(workload, "search").fired
            }
            assert len(tags) >= 3, (letter, tags)

    def test_unknown_device_still_rejected(self):
        model = SteadyStateModel(get_subsystem("A"))
        model._solve(WorkloadDescriptor(), "search")  # its row exists now
        for workload in (
            WorkloadDescriptor(src_device="gpu7"),
            WorkloadDescriptor(dst_device="gpu7"),
        ):
            with pytest.raises(ValueError, match="no memory device 'gpu7'"):
                model._solve(workload, "search")
        assert all(
            "gpu7" not in key for key in batch_plan(model.subsystem).index
        )


# -- resolved once -------------------------------------------------------------------


class TestResolvedOnce:
    @pytest.mark.parametrize("letter", LETTERS)
    def test_dma_paths_equal_fresh_derivations(self, letter):
        topology = get_subsystem(letter).topology
        swapped = dataclasses.replace(
            topology,
            acsctl_correct=not topology.acsctl_correct,
            smp_bandwidth_gbps=topology.smp_bandwidth_gbps / 2,
            memory_devices=tuple(
                dataclasses.replace(dev, socket=1 - dev.socket)
                for dev in topology.memory_devices
            ),
        )
        for topo in (topology, swapped):
            for name in topo.device_names():
                path = topo.dma_path(name)
                assert path == reference_dma_path(topo, name)
                assert topo.dma_path(name) is path
                assert topo.has_device(name)
            assert not topo.has_device("gpu7")
            with pytest.raises(KeyError, match="no memory device 'gpu7'"):
                topo.dma_path("gpu7")
        assert any(
            swapped.dma_path(name) != topology.dma_path(name)
            for name in topology.device_names()
        )

    def test_repeated_device_name_resolves_the_first(self):
        topology = get_subsystem("F").topology
        first = topology.memory_devices[0]
        shadow = dataclasses.replace(first, socket=1 - first.socket)
        doubled = dataclasses.replace(
            topology, memory_devices=(*topology.memory_devices, shadow)
        )
        assert doubled.dma_path(first.name).device == first
        assert doubled.dma_path(first.name) == reference_dma_path(
            doubled, first.name
        )

    @pytest.mark.parametrize("gen", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("payload", [256, 512])
    def test_link_byte_rate_equals_fresh_derivation(self, gen, payload):
        link = PCIeLink(gen=gen, max_payload_bytes=payload)
        fresh = link.effective_gbps * 1e9 / 8
        assert link.effective_bytes_per_sec == fresh
        assert link.transfer_us(4096) == (
            link.transfer_bytes(4096) / fresh * 1e6
        )
        narrower = dataclasses.replace(link, lanes=4)
        assert narrower.effective_bytes_per_sec == (
            narrower.effective_gbps * 1e9 / 8
        )
        assert narrower.effective_bytes_per_sec < fresh

    @pytest.mark.parametrize("letter", LETTERS)
    def test_resolved_state_stays_out_of_the_fingerprint(self, letter):
        base = get_subsystem(letter)
        subsystem = dataclasses.replace(
            base,
            topology=dataclasses.replace(base.topology),
            pcie=dataclasses.replace(base.pcie),
        )
        resolved = (
            (subsystem.topology, "_dma_paths"),
            (subsystem.pcie, "effective_bytes_per_sec"),
            (subsystem, "_batch_plan"),
        )
        assert not any(name in vars(owner) for owner, name in resolved)
        before = repr(subsystem)
        fingerprint = subsystem_fingerprint(subsystem)
        model = SteadyStateModel(subsystem)
        for workload in walk(letter, 5, 40):
            model._solve(workload, "search")
        assert all(name in vars(owner) for owner, name in resolved)
        assert repr(subsystem) == before
        assert subsystem_fingerprint(subsystem) == fingerprint
        assert subsystem == base


# -- the workload enums hash by identity --------------------------------------------

WORKLOAD_ENUMS = (QPType, Opcode, Direction, Colocation, SGLayout)


class TestEnumHash:
    @pytest.mark.parametrize("kind", WORKLOAD_ENUMS)
    def test_identity_hash_agrees_with_equality(self, kind):
        assert kind.__hash__ is object.__hash__
        for member in kind:
            assert hash(member) == object.__hash__(member)
            assert kind(member.value) is member
            assert {member: 1}[kind(member.value)] == 1
            assert all(
                (member == other) == (member is other) for other in kind
            )

    def test_int_constants_keep_their_int_hash(self):
        """``IntEnum``/``IntFlag`` members equal their ints, so they must
        keep hashing as those ints."""
        checked = 0
        for value in vars(constants).values():
            if isinstance(value, type) and issubclass(
                value, (enum.IntEnum, enum.IntFlag)
            ):
                for member in value:
                    assert hash(member) == hash(int(member))
                    checked += 1
        assert checked
