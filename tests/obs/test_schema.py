"""Journal record schema validation."""

from repro.analysis.serialize import workload_to_dict, workload_to_list
from repro.hardware.counters import ALL_COUNTERS
from repro.hardware.workload import WorkloadDescriptor
from repro.obs import schema
from repro.obs.schema import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    validate_journal,
    validate_record,
)


def skip_record(**overrides):
    record = {"v": SCHEMA_VERSION, "t": "skip", "time_seconds": 3.5}
    record.update(overrides)
    return record


class TestValidateRecord:
    def test_valid_record_has_no_errors(self):
        assert validate_record(skip_record()) == []

    def test_non_object_record(self):
        assert "not an object" in validate_record([1, 2, 3])[0]

    def test_wrong_schema_version(self):
        errors = validate_record(skip_record(v=99))
        assert any("unsupported schema version 99" in e for e in errors)

    def test_unknown_record_type(self):
        errors = validate_record(skip_record(t="warp"))
        assert any("unknown record type 'warp'" in e for e in errors)

    def test_missing_field(self):
        record = skip_record()
        del record["time_seconds"]
        errors = validate_record(record)
        assert any("missing field 'time_seconds'" in e for e in errors)

    def test_mistyped_field(self):
        errors = validate_record(skip_record(time_seconds="late"))
        assert any("expected int or float" in e for e in errors)

    def test_bool_does_not_satisfy_an_int_field(self):
        errors = validate_record(skip_record(time_seconds=True))
        assert any("is bool" in e for e in errors)

    def test_bool_fields_accept_bools(self):
        record = {
            "v": SCHEMA_VERSION, "t": "cache", "phase": "mfs", "hit": True,
        }
        assert validate_record(record) == []

    def test_unknown_transition_action(self):
        record = {
            "v": SCHEMA_VERSION, "t": "transition", "time_seconds": 0.0,
            "action": "teleport", "temperature": 1.0, "delta": 0.0,
        }
        errors = validate_record(record)
        assert any("unknown action 'teleport'" in e for e in errors)

    def test_extra_fields_are_forward_compatible(self):
        assert validate_record(skip_record(future_field=1)) == []

    def test_line_number_is_reported(self):
        errors = validate_record(skip_record(v=0), line=7)
        assert errors[0].startswith("line 7: ")


class TestSchemaVersions:
    def test_current_version_is_nine(self):
        assert SCHEMA_VERSION == 9
        assert SUPPORTED_VERSIONS == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_older_journals_still_validate(self):
        for version in (1, 2, 3, 4, 5, 6, 7, 8):
            assert validate_record(skip_record(v=version)) == []

    def test_future_version_rejected(self):
        errors = validate_record(skip_record(v=10))
        assert any("unsupported schema version 10" in e for e in errors)


class TestPopulationRecords:
    def test_chain_stamp_validates_on_any_record(self):
        assert validate_record(skip_record(chain=3)) == []

    def test_chain_stamp_must_be_an_int(self):
        errors = validate_record(skip_record(chain="3"))
        assert any("field 'chain' is str" in e for e in errors)
        errors = validate_record(skip_record(chain=True))
        assert any("field 'chain' is bool" in e for e in errors)

    def test_exchange_transition_action_validates(self):
        record = {
            "v": SCHEMA_VERSION, "t": "transition", "time_seconds": 9.0,
            "action": "exchange", "temperature": 0.5, "delta": 0.0,
            "chain": 1,
        }
        assert validate_record(record) == []


class TestResilienceRecords:
    def test_retry_record_validates(self):
        record = {
            "v": SCHEMA_VERSION, "t": "retry", "task": 4, "host": 1,
            "attempt": 0, "error": "crash", "backoff_seconds": 0.5,
        }
        assert validate_record(record) == []

    def test_retry_record_requires_its_fields(self):
        record = {"v": SCHEMA_VERSION, "t": "retry", "task": 4}
        errors = validate_record(record)
        assert any("missing field 'host'" in e for e in errors)
        assert any("missing field 'error'" in e for e in errors)

    def test_quarantine_record_validates(self):
        record = {
            "v": SCHEMA_VERSION, "t": "quarantine", "host": 2,
            "failures": 3, "redistributed": 5,
        }
        assert validate_record(record) == []

    def test_quarantine_record_types_are_checked(self):
        record = {
            "v": SCHEMA_VERSION, "t": "quarantine", "host": "two",
            "failures": 3, "redistributed": 5,
        }
        errors = validate_record(record)
        assert any("'host'" in e for e in errors)


class TestIsolationRecords:
    """Schema v6: the isolation preamble and the interference stamp (in
    the keyed shape of v6 and v7)."""

    def isolation_record(self, **overrides):
        record = {
            "v": 7, "t": "isolation",
            "victim": {"num_qps": 8}, "victim_share": 0.5,
            "alone_gbps": 25.0, "alone_p99_us": 2.5,
        }
        record.update(overrides)
        return record

    def test_isolation_record_validates(self):
        assert validate_record(self.isolation_record()) == []

    def test_isolation_record_requires_its_fields(self):
        record = self.isolation_record()
        del record["victim"]
        del record["alone_gbps"]
        errors = validate_record(record)
        assert any("missing field 'victim'" in e for e in errors)
        assert any("missing field 'alone_gbps'" in e for e in errors)

    def test_isolation_victim_must_be_an_object(self):
        errors = validate_record(self.isolation_record(victim="qp8"))
        assert any("field 'victim' is str" in e for e in errors)

    def test_experiment_interference_is_optional(self):
        record = {
            "v": 7, "t": "experiment", "time_seconds": 1.0,
            "counter": "c", "counter_value": 0.0, "symptom": "healthy",
            "tags": [], "kind": "probe", "workload": {}, "counters": {},
            "new_anomaly_index": None,
        }
        assert validate_record(record) == []
        assert validate_record({**record, "interference": 0.4}) == []
        errors = validate_record({**record, "interference": "low"})
        assert any("'interference'" in e for e in errors)


def v8_experiment(**overrides):
    record = {
        "v": 8, "t": "experiment", "time_seconds": 1.0, "counter": "c",
        "counter_value": 0.0, "symptom": "healthy", "tags": [],
        "kind": "probe", "workload": workload_to_list(WorkloadDescriptor()),
        "counters": [1.0] * len(ALL_COUNTERS), "new_anomaly_index": None,
        "latency": [1.0, 2.0, 3.0, 1.5, 0.5, 6.0, [0.1] * 7, ["L1"]],
    }
    record.update(overrides)
    return record


class TestPositionalRecords:
    """Schema v8: workloads, counters and latency as positional arrays."""

    def test_the_orders_are_the_format(self):
        assert schema.WORKLOAD_FIELDS == tuple(
            workload_to_dict(WorkloadDescriptor())
        )
        assert schema.ALL_COUNTERS == (
            "tx_bytes_per_sec", "rx_bytes_per_sec", "tx_packets_per_sec",
            "rx_packets_per_sec", "pause_duration_us_per_sec",
            "rx_wqe_cache_miss", "qpc_cache_miss", "mtt_cache_miss",
            "pcie_internal_backpressure", "pcie_ordering_stall",
            "rx_buffer_full_events", "internal_incast_events",
            "cross_socket_pressure", "tx_wqe_fetch_stall",
        )
        assert schema.LATENCY_KEYS == (
            "p50_us", "p90_us", "p99_us", "mean_us", "baseline_us",
            "inflation", "components", "tags",
        )
        assert schema.LATENCY_COMPONENTS == (
            "serialization_us", "pipeline_us", "pcie_us", "queueing_us",
            "cache_us", "pause_us", "stall_us",
        )

    def test_workload_list_is_the_dict_in_field_order(self):
        workload = WorkloadDescriptor(msg_sizes_bytes=(64, 65536))
        assert dict(
            zip(schema.WORKLOAD_FIELDS, workload_to_list(workload))
        ) == workload_to_dict(workload)

    def test_valid_records(self):
        assert validate_record(v8_experiment()) == []
        record = v8_experiment()
        del record["latency"]  # the latency signal was off
        assert validate_record(record) == []
        skip = skip_record(v=8, workload=workload_to_list(WorkloadDescriptor()))
        assert validate_record(skip) == []
        isolation = {
            "v": 8, "t": "isolation",
            "victim": workload_to_list(WorkloadDescriptor()),
            "victim_share": 0.5, "alone_gbps": 25.0, "alone_p99_us": 2.5,
        }
        assert validate_record(isolation) == []

    def test_an_empty_counter_snapshot_is_valid(self):
        # An event that kept no snapshot (a BO+MFS probe) writes [].
        assert validate_record(v8_experiment(counters=[])) == []
        assert validate_record(v8_experiment(workload=[])) == [
            "experiment: field 'workload' has 0 elements, expected 16",
        ]

    def test_array_lengths_are_checked(self):
        record = v8_experiment()
        record["workload"] = record["workload"][:-1]
        record["counters"] = record["counters"][1:]
        assert validate_record(record) == [
            "experiment: field 'workload' has 15 elements, expected 16",
            "experiment: field 'counters' has 13 elements, expected 0 or 14",
        ]
        record = v8_experiment()
        record["latency"][6] = [0.1] * 6
        assert validate_record(record) == [
            "experiment: field 'latency' element 'components' has 6 "
            "elements, expected 7",
        ]

    def test_element_types_are_checked(self):
        record = v8_experiment()
        record["workload"][5] = "4096"
        record["counters"][0] = True
        record["latency"][6][0] = None
        assert validate_record(record) == [
            "experiment: field 'workload' element 'mtu' is str, "
            "expected int or float",
            "experiment: field 'counters' element 'tx_bytes_per_sec' is "
            "bool, expected int or float",
            "experiment: field 'latency' element 'components' element "
            "'serialization_us' is NoneType, expected int or float",
        ]

    def test_the_keyed_shape_is_invalid_at_v8(self):
        record = v8_experiment(
            workload=workload_to_dict(WorkloadDescriptor())
        )
        assert validate_record(record) == [
            "experiment: field 'workload' is dict, expected an array of 16"
        ]
        skip = skip_record(v=8, workload={})
        assert validate_record(skip) == [
            "skip: field 'workload' is dict, expected an array of 16"
        ]


def run_end_record(version, **overrides):
    record = {
        "v": version, "t": "run_end", "elapsed_seconds": 60.0,
        "experiments": 3, "skipped": 0, "anomalies": 1,
        "counter_ranking": [],
    }
    record.update(overrides)
    return record


class TestEventRecords:
    """Schema v9: v8's shape, with no ``metrics`` dump."""

    def test_v9_totals_carry_no_metrics(self):
        assert validate_record(run_end_record(9)) == []
        snapshot = {
            "v": 9, "t": "snapshot", "time_seconds": 60.0,
            "experiments": 3, "anomalies": 1, "skipped": 0,
        }
        assert validate_record(snapshot) == []
        assert validate_record(v8_experiment(v=9)) == []

    def test_v8_totals_still_need_their_dump(self):
        assert validate_record(run_end_record(8)) == [
            "run_end: missing field 'metrics'"
        ]
        assert validate_record(run_end_record(8, metrics=None)) == []


class TestValidateJournal:
    def test_empty_journal_is_an_error(self):
        assert validate_journal([]) == ["journal is empty"]

    def test_line_numbers_across_the_journal(self):
        records = [skip_record(), skip_record(time_seconds=None)]
        errors = validate_journal(records)
        assert len(errors) == 1
        assert errors[0].startswith("line 2: ")

    def test_clean_journal_validates(self):
        assert validate_journal([skip_record()] * 3) == []
