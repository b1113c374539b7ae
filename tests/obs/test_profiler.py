"""Span profiler: nesting, self-time telescoping, trace export."""

import json
import time

from repro.obs import (
    SpanProfiler,
    chrome_trace,
    render_span_table,
    validate_chrome_trace,
)
from repro.obs.folds import Spans, run_folds
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    measured_wall_seconds,
    self_times,
    span_totals,
    spans_records,
)
from repro.obs.schema import validate_record


def nested_events():
    profiler = SpanProfiler()
    with profiler.span("search"):
        with profiler.span("rank"):
            time.sleep(0.002)
        for _ in range(3):
            with profiler.span("iteration"):
                with profiler.span("solve"):
                    time.sleep(0.001)
    return profiler.events()


class TestRecording:
    def test_paths_nest_under_the_active_span(self):
        paths = {path for path, _, _ in nested_events()}
        assert paths == {
            "search",
            "search/rank",
            "search/iteration",
            "search/iteration/solve",
        }

    def test_counts_match_the_call_structure(self):
        totals = span_totals(nested_events())
        assert totals["search"]["count"] == 1
        assert totals["search/iteration"]["count"] == 3
        assert totals["search/iteration/solve"]["count"] == 3

    def test_span_observes_into_metrics(self):
        metrics = MetricsRegistry()
        profiler = SpanProfiler(metrics=metrics)
        with profiler.span("solve"):
            pass
        summary = metrics.histogram("span.seconds", span="solve")
        assert summary is not None and summary.count == 1


class TestSelfTimes:
    def test_self_times_telescope_to_the_root_wall_clock(self):
        events = nested_events()
        wall = measured_wall_seconds(events)
        accounted = sum(self_times(events).values())
        # Exact telescoping: every parent's self time is its total
        # minus its direct children, so the sum is the root total.
        assert abs(accounted - wall) < 1e-9
        assert accounted >= 0.95 * wall

    def test_parent_self_excludes_children(self):
        events = nested_events()
        totals = span_totals(events)
        selves = self_times(events)
        iteration = totals["search/iteration"]["total"]
        solve = totals["search/iteration/solve"]["total"]
        assert abs(selves["search/iteration"] - (iteration - solve)) < 1e-9

    def test_table_reports_full_accounting(self):
        table = render_span_table(nested_events())
        assert "search/iteration/solve" in table
        assert "account for 100.0%" in table

    def test_table_handles_no_events(self):
        assert render_span_table([]) == "no spans recorded"


class TestChromeTrace:
    def test_trace_is_schema_valid(self):
        trace = chrome_trace(nested_events())
        assert validate_chrome_trace(trace) == []

    def test_trace_survives_json_round_trip(self):
        trace = chrome_trace(nested_events())
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
    def test_spans_records_round_trip(self):
        events = nested_events()
        records = list(spans_records(events, chunk=3))
        assert len(records) > 1  # chunking actually chunked
        (spans,) = run_folds(records, Spans())
        assert spans.events == events

    def test_spans_records_validate_under_schema(self):
        for record in spans_records(nested_events()):
            assert validate_record(dict(record, v=3), 0) == []
