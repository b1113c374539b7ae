"""Layer span profiler: nesting, self-time telescoping, trace export,
and wrappers that never outlive their profiler."""

import importlib
import json
import sys
import types

import pytest

from repro.cli import main
from repro.core import Collie
from repro.obs import (
    FlightRecorder,
    SpanProfiler,
    chrome_trace,
    render_span_table,
    validate_chrome_trace,
)
from repro.obs.folds import Spans, run_folds
from repro.obs.profiler import (
    LAYERS,
    SEP,
    measured_wall_seconds,
    self_times,
    span_totals,
    spans_records,
)
from repro.obs.schema import validate_record


def layer_targets():
    """``(owner, name)`` of every call :data:`LAYERS` names."""
    targets = []
    for module_name, attribute in (
        target for calls in LAYERS.values() for target in calls
    ):
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        targets.append((owner, name))
    return targets


def current_bindings():
    """Every target's object, and every loaded ``repro`` module's alias
    of a target module function, keyed by where it is bound."""
    bound = {}
    functions = set()
    for owner, name in layer_targets():
        bound[(owner.__name__, name)] = getattr(owner, name)
        if isinstance(owner, types.ModuleType):
            functions.add(id(getattr(owner, name)))
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "repro" or module is None:
            continue
        for key, value in vars(module).items():
            if id(value) in functions:
                bound[(module_name, key)] = value
    return bound


@pytest.fixture(scope="module")
def profiled():
    """One small profiled search: its events and report."""
    recorder = FlightRecorder()
    recorder.profiler = SpanProfiler().install()
    try:
        report = Collie.for_subsystem(
            "F", budget_hours=0.5, seed=1, recorder=recorder
        ).run()
    finally:
        recorder.profiler.uninstall()
    return recorder.profiler.events(), report


class TestRecording:
    def test_paths_nest_under_the_active_span(self, profiled):
        events, _ = profiled
        paths = {path for path, _, _ in events}
        assert "annealing/testbed/model" in paths
        assert "annealing/testbed/model/features" in paths
        for path in paths:
            layers = path.split(SEP)
            assert layers[0] == "annealing"
            assert set(layers) <= set(LAYERS)
            # Every enclosing span is recorded too.
            if len(layers) > 1:
                assert SEP.join(layers[:-1]) in paths

    def test_counts_match_the_call_structure(self, profiled):
        events, report = profiled
        totals = span_totals(events)
        assert totals["annealing"]["count"] == 1
        testbed = sum(
            entry["count"] for path, entry in totals.items()
            if path.rsplit(SEP, 1)[-1] == "testbed"
        )
        assert testbed == report.experiments
        assert totals["annealing/testbed/model"]["count"] == (
            report.experiments
        )

    def test_a_suspended_extraction_holds_no_open_span(self, profiled):
        """Each resumption of the MFS generator is its own span, so
        the probes it yields are measured outside it."""
        events, report = profiled
        paths = {path for path, _, _ in events}
        assert report.anomalies and "annealing/mfs" in paths
        assert not any(path.startswith("annealing/mfs/testbed")
                       for path in paths)


class TestSelfTimes:
    def test_self_times_telescope_to_the_root_wall_clock(self, profiled):
        events, _ = profiled
        wall = measured_wall_seconds(events)
        accounted = sum(self_times(events).values())
        # Exact telescoping: every parent's self time is its total
        # minus its direct children, so the sum is the root total.
        assert accounted == pytest.approx(wall, abs=1e-9)
        assert wall == span_totals(events)["annealing"]["total"]

    def test_parent_self_excludes_children(self, profiled):
        events, _ = profiled
        totals = span_totals(events)
        selves = self_times(events)
        testbed = "annealing/testbed"
        children = sum(
            entry["total"] for path, entry in totals.items()
            if path.rsplit(SEP, 1)[0] == testbed
        )
        assert selves[testbed] == pytest.approx(
            totals[testbed]["total"] - children, abs=1e-9
        )
        assert all(seconds > -1e-9 for seconds in selves.values())

    def test_table_reports_full_accounting(self, profiled):
        table = render_span_table(profiled[0])
        assert "annealing/testbed/model" in table
        assert "account for 100.0%" in table

    def test_table_handles_no_events(self):
        assert render_span_table([]) == "no spans recorded"


class TestChromeTrace:
    def test_trace_is_schema_valid(self, profiled):
        trace = chrome_trace(profiled[0])
        assert validate_chrome_trace(trace) == []
        assert len(trace["traceEvents"]) == len(profiled[0])

    def test_trace_survives_json_round_trip(self, profiled):
        trace = chrome_trace(profiled[0])
        reparsed = json.loads(json.dumps(trace))
        assert validate_chrome_trace(reparsed) == []
        assert reparsed == trace

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"name": "", "ph": "B", "ts": -1}]}
        errors = validate_chrome_trace(bad)
        assert any("name" in e for e in errors)
        assert any("ph" in e for e in errors)


class TestJournalRoundTrip:
    def test_spans_records_round_trip(self, profiled):
        events = profiled[0]
        records = list(spans_records(events, chunk=100))
        assert len(records) > 1  # chunking actually chunked
        (spans,) = run_folds(records, Spans())
        assert spans.events == events

    def test_spans_records_validate_under_schema(self, profiled):
        for record in spans_records(profiled[0]):
            assert validate_record(dict(record, v=3), 0) == []


class TestInstall:
    def test_uninstall_restores_every_target_and_alias(self):
        before = current_bindings()
        # The aliases `from x import f` made are among them.
        assert ("repro.core.annealing", "match_any") in before
        assert ("repro.obs.recorder", "experiment_record") in before
        profiler = SpanProfiler().install()
        try:
            during = current_bindings()
            assert all(during[key] is not before[key] for key in before)
        finally:
            profiler.uninstall()
        after = current_bindings()
        assert all(after[key] is before[key] for key in before)

    def test_an_alias_bound_while_installed_is_restored(self, monkeypatch):
        from repro.core import mfs

        original = mfs.match_any
        probe = types.ModuleType("repro.profiler_probe")
        monkeypatch.setitem(sys.modules, probe.__name__, probe)
        profiler = SpanProfiler().install()
        try:
            # A module imported mid-command binds the wrapper.
            probe.match_any = mfs.match_any
            assert probe.match_any is not original
        finally:
            profiler.uninstall()
        assert probe.match_any is original

    @pytest.mark.parametrize("output", ["report.json", "missing/report.json"])
    def test_no_wrapper_outlives_a_profiled_command(
        self, output, tmp_path, monkeypatch, capsys
    ):
        """Whether the command succeeds or raises (here: saving its
        report into a directory that does not exist)."""
        monkeypatch.chdir(tmp_path)
        before = current_bindings()
        argv = ["search", "H", "--hours", "0.2", "--seed", "1",
                "--profile", "--output", output]
        if output.startswith("missing"):
            with pytest.raises(FileNotFoundError):
                main(argv)
        else:
            assert main(argv) == 0
            assert "annealing/testbed" in capsys.readouterr().out
        after = current_bindings()
        assert all(after[key] is before[key] for key in before)
