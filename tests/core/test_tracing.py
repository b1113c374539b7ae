"""Traffic tracing: functional slices on the predicted timeline."""

import numpy as np
import pytest

from repro.core.space import SearchSpace
from repro.core.tracing import TrafficTracer
from repro.hardware.workload import SGLayout, WorkloadDescriptor
from repro.verbs.constants import Opcode, QPType
from repro.workloads.appendix import setting


@pytest.fixture(scope="module")
def tracer():
    return TrafficTracer("F")


class TestTrace:
    def test_rejects_non_positive_message_count(self, tracer):
        with pytest.raises(ValueError):
            tracer.trace(WorkloadDescriptor(), messages=0)

    def test_every_message_posts_delivers_completes(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=8)
        assert len(log.events_of("post")) == 8
        assert len(log.events_of("deliver")) == 8
        assert len(log.events_of("complete")) == 8  # sender CQEs (WRITE)

    def test_send_traffic_completes_on_both_sides(self, tracer):
        workload = WorkloadDescriptor(
            opcode=Opcode.SEND, msg_sizes_bytes=(1024,), mtu=1024
        )
        log = tracer.trace(workload, messages=6)
        assert len(log.events_of("complete")) == 12  # sender + receiver

    def test_timeline_is_monotone_and_rate_spaced(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=5)
        posts = [r.time_us for r in log.events_of("post")]
        assert posts == sorted(posts)
        spacing = posts[1] - posts[0]
        assert spacing == pytest.approx(
            1e6 / log.predicted_msgs_per_sec, rel=0.01
        )

    def test_anomalous_workload_traces_slower(self, tracer):
        healthy = tracer.trace(WorkloadDescriptor(mtu=4096), messages=4)
        anomalous = tracer.trace(setting(3).workload, messages=4)
        assert (
            anomalous.predicted_msgs_per_sec
            < healthy.predicted_msgs_per_sec
        )

    def test_ud_workload_traces(self, tracer):
        log = tracer.trace(setting(1).workload, messages=6)
        statuses = {r.detail for r in log.events_of("complete")}
        assert statuses == {"SUCCESS"}

    def test_mixed_sg_layout_traces(self, tracer):
        log = tracer.trace(setting(9).workload, messages=4)
        assert any("3-entry SG" in r.detail for r in log.events_of("post"))

    def test_render_is_bounded(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=30)
        text = log.render(limit=10)
        assert "more records" in text
        assert text.count("\n") < 20


class TestRenderPaths:
    def test_record_render_carries_every_field(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=1)
        record = log.events_of("post")[0]
        text = record.render()
        assert "us]" in text
        assert f"qp{record.qp_index}" in text
        assert "post" in text
        assert f"wr={record.wr_id}" in text
        assert f"{record.nbytes:>8}B" in text
        assert record.detail in text

    def test_render_without_limit_shows_everything(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=30)
        text = log.render(limit=None)
        assert "more records" not in text
        # Header (2 lines) + every record on its own line.
        assert text.count("\n") == 1 + len(log.records)

    def test_render_exact_limit_has_no_ellipsis(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=4)
        text = log.render(limit=len(log.records))
        assert "more records" not in text

    def test_render_header_names_workload_and_subsystem(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=1)
        text = log.render()
        assert "trace of" in text
        assert "on subsystem F" in text
        assert "msgs/s" in text

    def test_events_of_unknown_kind_is_empty(self, tracer):
        log = tracer.trace(WorkloadDescriptor(), messages=2)
        assert log.events_of("retransmit") == []


def completions(log) -> set:
    return {r.detail for r in log.events_of("complete")}


class TestFunctionalSlice:
    """A traced slice runs the workload's shape through repro.verbs:
    legal shapes complete, illegal placements fail loudly."""

    @pytest.mark.parametrize(
        "qp_type,opcode",
        [
            (QPType.RC, Opcode.WRITE),
            (QPType.RC, Opcode.READ),
            (QPType.RC, Opcode.SEND),
            (QPType.UC, Opcode.WRITE),
            (QPType.UC, Opcode.SEND),
            (QPType.UD, Opcode.SEND),
        ],
    )
    def test_every_transport_opcode_combination_runs(
        self, tracer, qp_type, opcode
    ):
        workload = WorkloadDescriptor(
            qp_type=qp_type, opcode=opcode, mtu=2048,
            msg_sizes_bytes=(1024, 512, 2048, 64)
            if qp_type is QPType.UD else (4096, 512, 65536, 64),
            wqe_batch=4, sge_per_wqe=2, num_qps=8,
        )
        log = tracer.trace(workload, messages=8)
        assert len(log.events_of("post")) == 8
        assert completions(log) == {"SUCCESS"}
        # Scaled down: 8 QPs of the workload, MAX_QPS in the slice.
        assert {r.qp_index for r in log.records} == set(
            range(TrafficTracer.MAX_QPS)
        )

    def test_mixed_sg_layout_runs(self, tracer):
        workload = WorkloadDescriptor(
            sge_per_wqe=3, sg_layout=SGLayout.MIXED,
            msg_sizes_bytes=(128, 65536, 1024),
        )
        log = tracer.trace(workload, messages=6)
        assert completions(log) == {"SUCCESS"}
        assert all("3-entry SG" in r.detail for r in log.events_of("post"))

    def test_gpu_placement_runs_on_gpu_hosts(self, tracer):
        log = tracer.trace(
            WorkloadDescriptor(src_device="gpu0", dst_device="gpu0"),
            messages=4,
        )
        assert completions(log) == {"SUCCESS"}
        assert {r.detail for r in log.events_of("deliver")} == {"-> gpu0"}

    def test_unknown_placement_fails(self):
        with pytest.raises(ValueError, match="no memory device 'gpu0'"):
            TrafficTracer("H").trace(WorkloadDescriptor(src_device="gpu0"))

    @pytest.mark.parametrize("letter", "ABCDEFGH")
    def test_random_space_points_are_functionally_legal(self, letter):
        """Any coerced search point of any subsystem survives the verbs
        layer."""
        tracer = TrafficTracer(letter)
        space = SearchSpace.for_subsystem(tracer.subsystem)
        rng = np.random.default_rng(0)
        for _ in range(40):
            log = tracer.trace(space.random(rng), messages=8)
            assert completions(log) == {"SUCCESS"}
