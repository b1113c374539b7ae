"""Report/MFS/workload JSON round-trips."""

import json

import pytest

from repro.analysis.serialize import (
    FORMAT_VERSION,
    load_anomalies,
    mfs_from_dict,
    mfs_to_dict,
    report_to_dict,
    save_report,
    workload_from_dict,
    workload_to_dict,
)
from repro.core import Collie
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


def sample_workload():
    return WorkloadDescriptor(
        qp_type=QPType.UD,
        opcode=Opcode.SEND,
        direction=Direction.BIDIRECTIONAL,
        colocation=Colocation.MIXED_LOOPBACK,
        mtu=2048,
        num_qps=37,
        wqe_batch=5,
        sge_per_wqe=3,
        sg_layout=SGLayout.MIXED,
        wq_depth=333,
        msg_sizes_bytes=(64, 2048, 777),
        mrs_per_qp=9,
        mr_bytes=12345,
        src_device="numa1",
        dst_device="numa0",
        duty_cycle=0.5,
    )


class TestWorkloadRoundTrip:
    def test_roundtrip_is_identity(self):
        original = sample_workload()
        assert workload_from_dict(workload_to_dict(original)) == original

    def test_dict_is_json_compatible(self):
        json.dumps(workload_to_dict(sample_workload()))

    def test_missing_new_fields_default(self):
        data = workload_to_dict(WorkloadDescriptor())
        data.pop("sg_layout")
        data.pop("duty_cycle")
        workload = workload_from_dict(data)
        assert workload.sg_layout is SGLayout.EVEN
        assert workload.duty_cycle == 1.0


class TestEnumLookup:
    """``workload_from_dict`` resolves enum fields through value tables;
    ``Enum(value)`` is the oracle."""

    ENUM_FIELDS = (
        ("qp_type", QPType),
        ("opcode", Opcode),
        ("direction", Direction),
        ("colocation", Colocation),
        ("sg_layout", SGLayout),
    )

    @staticmethod
    def _data(field, value):
        data = workload_to_dict(WorkloadDescriptor())
        data[field] = value
        if field == "qp_type":
            data["opcode"] = "SEND"  # every transport supports SEND
            data["msg_sizes_bytes"] = [64]  # within one UD MTU
        return data

    @pytest.mark.parametrize("field,enum", ENUM_FIELDS)
    def test_every_value_resolves_to_the_enum_member(self, field, enum):
        for member in enum:
            resolved = getattr(
                workload_from_dict(self._data(field, member.value)), field
            )
            assert resolved is enum(member.value)

    @pytest.mark.parametrize("field,enum", ENUM_FIELDS)
    @pytest.mark.parametrize("value", ["XX", ["RC"]])
    def test_unknown_or_unhashable_value_raises_the_enum_error(
        self, field, enum, value
    ):
        with pytest.raises(ValueError) as expected:
            enum(value)
        with pytest.raises(ValueError) as raised:
            workload_from_dict(self._data(field, value))
        assert str(raised.value) == str(expected.value)


class TestMFSRoundTrip:
    def make_mfs(self):
        return MinimalFeatureSet(
            symptom="pause frame",
            witness=sample_workload(),
            intervals=(IntervalCondition("num_qps", 16.0, None),),
            memberships=(MembershipCondition("qp_type", ("UD",)),),
            requires_mix=True,
            found_at_seconds=1234.5,
            probe_experiments=42,
        )

    def test_roundtrip_preserves_matching(self):
        original = self.make_mfs()
        restored = mfs_from_dict(mfs_to_dict(original))
        assert restored == original
        probe = WorkloadDescriptor(
            qp_type=QPType.UD, opcode=Opcode.SEND, num_qps=64, mtu=2048,
            msg_sizes_bytes=(128, 2048),
        )
        assert original.matches(probe) == restored.matches(probe)


class TestReportPersistence:
    @pytest.fixture(scope="class")
    def report(self):
        return Collie.for_subsystem("H", seed=1, budget_hours=1.0).run()

    def test_report_to_dict_fields(self, report):
        data = report_to_dict(report)
        assert data["format_version"] == FORMAT_VERSION
        assert data["subsystem"] == "H"
        assert data["experiments"] == report.experiments
        assert len(data["anomalies"]) == len(report.anomalies)
        json.dumps(data)

    def test_save_and_load_anomalies(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, str(path))
        anomalies = load_anomalies(str(path))
        assert len(anomalies) == len(report.anomalies)
        for restored, original in zip(anomalies, report.anomalies):
            assert restored.describe() == original.describe()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "anomalies": []}))
        with pytest.raises(ValueError, match="format"):
            load_anomalies(str(path))
