"""Feature extraction: the vector quirk gates and counters read."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.features import _pattern, extract_features
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import (
    Colocation,
    Direction,
    SGLayout,
    WorkloadDescriptor,
)
from repro.verbs.constants import ROCE_HEADER_BYTES, Opcode, QPType


@pytest.fixture
def f():
    return get_subsystem("F")


class TestTransportFeatures:
    def test_raw_dimensions_pass_through(self, f):
        w = WorkloadDescriptor(num_qps=64, wqe_batch=16, sge_per_wqe=4,
                               wq_depth=256, mtu=2048)
        feats = extract_features(w, f)
        assert feats["num_qps"] == 64
        assert feats["wqe_batch"] == 16
        assert feats["sge_per_wqe"] == 4
        assert feats["wq_depth"] == 256
        assert feats["mtu"] == 2048
        assert feats["qp_type"] == "RC"
        assert feats["opcode"] == "WRITE"

    def test_bidirectional_doubles_qp_working_set(self, f):
        uni = extract_features(WorkloadDescriptor(num_qps=100), f)
        bi = extract_features(
            WorkloadDescriptor(num_qps=100,
                               direction=Direction.BIDIRECTIONAL), f,
        )
        assert uni["total_qps"] == 100
        assert bi["total_qps"] == 200
        assert bi["bidirectional"] == 1.0


class TestCacheFeatures:
    def test_rxq_features_zero_for_one_sided_ops(self, f):
        w = WorkloadDescriptor(opcode=Opcode.WRITE, num_qps=1024, wq_depth=4096)
        feats = extract_features(w, f)
        assert feats["rxq_capacity_miss"] == 0.0
        assert feats["rxq_burst_miss"] == 0.0

    def test_rxq_capacity_miss_for_send(self, f):
        w = WorkloadDescriptor(
            opcode=Opcode.SEND, num_qps=16, wq_depth=1024, mtu=1024,
            msg_sizes_bytes=(1024,),
        )
        feats = extract_features(w, f)
        total = f.rnic.rx_wqe_cache.total_entries
        assert feats["rxq_capacity_miss"] == pytest.approx(
            1 - total / (16 * 1024)
        )

    def test_rxq_burst_miss_requires_deep_wq(self, f):
        per_qp = f.rnic.rx_wqe_cache.per_qp_entries
        shallow = WorkloadDescriptor(
            opcode=Opcode.SEND, wq_depth=per_qp, wqe_batch=128,
            msg_sizes_bytes=(1024,),
        )
        deep = shallow.replace(wq_depth=per_qp * 2)
        assert extract_features(shallow, f)["rxq_burst_miss"] == 0.0
        assert extract_features(deep, f)["rxq_burst_miss"] > 0.0

    def test_qpc_and_mtt_misses(self, f):
        w = WorkloadDescriptor(num_qps=512, mrs_per_qp=32)
        feats = extract_features(w, f)
        assert feats["qpc_miss"] == pytest.approx(
            1 - f.rnic.qpc_cache_entries / 512
        )
        assert feats["mtt_miss"] == pytest.approx(
            1 - f.rnic.mtt_cache_entries / (512 * 32)
        )


class TestHostFeatures:
    def test_cross_socket_detection(self, f):
        same = extract_features(WorkloadDescriptor(), f)
        crossed = extract_features(
            WorkloadDescriptor(dst_device="numa1"), f
        )
        assert same["crosses_socket"] == 0.0
        assert crossed["crosses_socket"] == 1.0

    def test_gpu_detection_and_root_complex(self, f):
        # Subsystem F has misconfigured ACSCtl, so GPU paths detour.
        feats = extract_features(WorkloadDescriptor(dst_device="gpu0"), f)
        assert feats["uses_gpu_memory"] == 1.0
        assert feats["via_root_complex"] == 1.0
        assert feats["sink_via_root_complex"] == 1.0

    def test_src_gpu_only_counts_as_sink_when_bidirectional(self, f):
        uni = extract_features(WorkloadDescriptor(src_device="gpu0"), f)
        bi = extract_features(
            WorkloadDescriptor(src_device="gpu0",
                               direction=Direction.BIDIRECTIONAL), f,
        )
        assert uni["sink_via_root_complex"] == 0.0
        assert bi["sink_via_root_complex"] == 1.0

    def test_platform_flags(self, f):
        feats = extract_features(WorkloadDescriptor(), f)
        assert feats["strict_ordering"] == 1.0  # F: no relaxed ordering
        assert feats["weak_cross_socket"] == 1.0
        assert feats["loopback_unlimited"] == 1.0  # CX-6 lacks limiter

    def test_h_platform_flags(self):
        h = get_subsystem("H")
        feats = extract_features(WorkloadDescriptor(), h)
        assert feats["strict_ordering"] == 0.0
        assert feats["weak_cross_socket"] == 0.0
        assert feats["loopback_unlimited"] == 0.0

    def test_loopback_flag(self, f):
        feats = extract_features(
            WorkloadDescriptor(colocation=Colocation.MIXED_LOOPBACK), f
        )
        assert feats["loopback"] == 1.0


class TestPatternFeatures:
    def test_mix_and_fractions(self, f):
        w = WorkloadDescriptor(msg_sizes_bytes=(128, 65536, 1024, 64))
        feats = extract_features(w, f)
        assert feats["mixes_small_and_large"] == 1.0
        assert feats["small_frac"] == pytest.approx(0.75)
        assert feats["large_frac"] == pytest.approx(0.25)

    def test_sg_entry_mix_feature(self, f):
        w = WorkloadDescriptor(
            sge_per_wqe=3, sg_layout=SGLayout.MIXED,
            msg_sizes_bytes=(128, 65536, 1024),
        )
        assert extract_features(w, f)["sg_entry_mix"] == 1.0

    def test_load_aggregates(self, f):
        w = WorkloadDescriptor(
            num_qps=100, wqe_batch=10, msg_sizes_bytes=(512, 65536)
        )
        feats = extract_features(w, f)
        assert feats["short_req_outstanding"] == pytest.approx(500)
        assert feats["wqe_outstanding_bytes"] == 100 * 10 * w.wqe_bytes


#: Sizes around the MTU multiples and the small/large thresholds, plus
#: any size up to 4 MiB.
SIZES = st.one_of(
    st.sampled_from([
        1, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097,
        65535, 65536, 65537,
    ]),
    st.integers(min_value=1, max_value=4 << 20),
)


@st.composite
def patterns(draw):
    """A workload with a 1-8 request pattern at any MTU; UD requests
    are clipped to one MTU, as the descriptor requires."""
    qp_type = draw(st.sampled_from(list(QPType)))
    mtu = draw(st.sampled_from([256, 512, 1024, 2048, 4096]))
    sizes = draw(st.lists(SIZES, min_size=1, max_size=8))
    if qp_type is QPType.UD:
        sizes = [min(size, mtu) for size in sizes]
    opcode = Opcode.SEND if qp_type is QPType.UD else Opcode.WRITE
    return WorkloadDescriptor(
        qp_type=qp_type, opcode=opcode, mtu=mtu,
        msg_sizes_bytes=tuple(sizes),
    )


class TestOnePatternPass:
    """``_pattern`` is the one definition of the message-pattern
    statistics; the descriptor's properties are its reference."""

    @given(w=patterns())
    @settings(max_examples=300, deadline=None)
    def test_pattern_equals_the_descriptor_properties(self, w):
        sizes = w.msg_sizes_bytes
        wire = sum(
            s + w.packets_per_message(s) * ROCE_HEADER_BYTES for s in sizes
        ) / len(sizes)
        assert repr(_pattern(sizes, w.mtu)) == repr((
            w.avg_msg_bytes,
            w.min_msg_bytes,
            w.max_msg_bytes,
            w.packets_per_message(),
            w.small_message_fraction,
            w.large_message_fraction,
            w.mixes_small_and_large,
            wire,
        ))

    @given(w=patterns())
    @settings(max_examples=50, deadline=None)
    def test_scalar_features_read_the_pattern_pass(self, w):
        feats = extract_features(w, get_subsystem("F"))
        assert repr([
            feats["avg_msg"], feats["min_msg"], feats["max_msg"],
            feats["avg_pkts_per_msg"], feats["small_frac"],
            feats["large_frac"], feats["mixes_small_and_large"],
            feats["short_req_outstanding"],
        ]) == repr([
            w.avg_msg_bytes, float(w.min_msg_bytes), float(w.max_msg_bytes),
            w.packets_per_message(), w.small_message_fraction,
            w.large_message_fraction,
            1.0 if w.mixes_small_and_large else 0.0,
            w.num_qps * w.wqe_batch * w.small_message_fraction,
        ])
