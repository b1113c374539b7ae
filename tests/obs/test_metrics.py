"""The labeled metrics registry."""

import threading

import pytest

from repro.obs.metrics import HistogramSummary, MetricsRegistry, render_key


class TestRenderKey:
    def test_bare_name_without_labels(self):
        assert render_key("search.runs", {}) == "search.runs"

    def test_labels_render_sorted(self):
        key = render_key("x", {"b": 2, "a": 1})
        assert key == "x{a=1,b=2}"


class TestCounters:
    def test_default_increment_is_one(self):
        metrics = MetricsRegistry()
        metrics.counter("hits")
        metrics.counter("hits")
        assert metrics.value("hits") == 2.0

    def test_custom_increment(self):
        metrics = MetricsRegistry()
        metrics.counter("bytes", 512.0)
        metrics.counter("bytes", 256.0)
        assert metrics.value("bytes") == 768.0

    def test_labels_are_distinct_series(self):
        metrics = MetricsRegistry()
        metrics.counter("exp", kind="sa")
        metrics.counter("exp", kind="sa")
        metrics.counter("exp", kind="probe")
        assert metrics.value("exp", kind="sa") == 2.0
        assert metrics.value("exp", kind="probe") == 1.0
        assert metrics.value("exp") == 0.0  # the unlabeled series is unseen


class TestGauges:
    def test_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("temperature", 1.0)
        metrics.gauge("temperature", 0.25)
        assert metrics.value("temperature") == 0.25


class TestHistograms:
    def test_streaming_summary(self):
        metrics = MetricsRegistry()
        for value in (1.0, 2.0, 6.0):
            metrics.observe("delta", value)
        summary = metrics.histogram("delta")
        assert summary.count == 3
        assert summary.total == 9.0
        assert summary.minimum == 1.0
        assert summary.maximum == 6.0
        assert summary.mean == 3.0

    def test_unseen_series_is_empty(self):
        summary = MetricsRegistry().histogram("nope")
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_empty_summary_as_dict_has_finite_bounds(self):
        as_dict = HistogramSummary().as_dict()
        assert as_dict["min"] == 0.0 and as_dict["max"] == 0.0

    def test_histogram_returns_a_copy(self):
        metrics = MetricsRegistry()
        metrics.observe("x", 1.0)
        copy = metrics.histogram("x")
        copy.observe(100.0)
        assert metrics.histogram("x").count == 1

    def test_merge_equals_observing_both_streams(self):
        """The aggregator merges per-journal summaries into one."""
        first, second, both = (HistogramSummary() for _ in range(3))
        for value in (0.5, 3.0, 40.0):
            first.observe(value)
            both.observe(value)
        for value in (7.0, 900.0):
            second.observe(value)
            both.observe(value)
        first.merge(second)
        first.merge(HistogramSummary())  # an idle journal changes nothing
        assert first == both


class TestPercentiles:
    def test_as_dict_reports_percentiles(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):
            metrics.observe("latency", float(value))
        summary = metrics.histogram("latency").as_dict()
        for key in ("p50", "p90", "p99"):
            assert key in summary
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["min"] <= summary["p50"] <= summary["max"]

    def test_percentiles_clamp_to_observed_range(self):
        metrics = MetricsRegistry()
        metrics.observe("one", 3.0)
        summary = metrics.histogram("one")
        assert summary.percentile(0.50) == 3.0
        assert summary.percentile(0.99) == 3.0

    def test_empty_summary_percentile_is_zero(self):
        from repro.obs.metrics import HistogramSummary

        assert HistogramSummary().percentile(0.5) == 0.0

    def test_single_bucket_interpolates_instead_of_collapsing(self):
        """Regression: quantiles inside one bucket used to collapse onto
        the bucket's upper bound (25.0 here), making p50 == p90 == p99.
        Linear interpolation between the observed [min, max] resolves
        sub-bucket ranks."""
        metrics = MetricsRegistry()
        for value in range(11, 21):  # all land in the (10, 25] bucket
            metrics.observe("tight", float(value))
        summary = metrics.histogram("tight")
        assert summary.percentile(0.50) == pytest.approx(15.5)
        assert summary.percentile(0.90) == pytest.approx(19.1)
        assert (
            summary.percentile(0.50)
            < summary.percentile(0.90)
            < summary.percentile(0.99)
        )
        assert summary.percentile(0.99) < 25.0  # never the raw bound

    def test_bucket_estimate_is_order_of_magnitude_right(self):
        metrics = MetricsRegistry()
        for _ in range(90):
            metrics.observe("mixed", 0.001)
        for _ in range(10):
            metrics.observe("mixed", 10.0)
        summary = metrics.histogram("mixed")
        assert summary.percentile(0.50) < 0.01
        assert summary.percentile(0.99) >= 1.0

    def test_describe_mentions_p50_and_p99(self):
        metrics = MetricsRegistry()
        metrics.observe("delta", 2.0)
        text = metrics.describe()
        assert "p50=" in text and "p99=" in text


class TestTimer:
    def test_timer_observes_elapsed_seconds(self):
        metrics = MetricsRegistry()
        with metrics.timer("wall", phase="mfs"):
            pass
        summary = metrics.histogram("wall", phase="mfs")
        assert summary.count == 1
        assert summary.minimum >= 0.0


class TestSnapshot:
    def test_snapshot_is_json_shaped(self):
        metrics = MetricsRegistry()
        metrics.counter("runs")
        metrics.gauge("temp", 0.5, stage="late")
        metrics.observe("delta", 2.0)
        snap = metrics.snapshot()
        assert snap["counters"] == {"runs": 1.0}
        assert snap["gauges"] == {"temp{stage=late}": 0.5}
        assert snap["histograms"]["delta"]["count"] == 1

    def test_series_lists_every_rendered_name(self):
        metrics = MetricsRegistry()
        metrics.counter("b")
        metrics.gauge("a", 1.0)
        metrics.observe("c", 1.0, k="v")
        assert list(metrics.series()) == ["a", "b", "c{k=v}"]

    def test_describe_mentions_every_series(self):
        metrics = MetricsRegistry()
        metrics.counter("runs")
        metrics.observe("delta", 2.0)
        text = metrics.describe()
        assert "runs" in text and "delta" in text

    def test_describe_empty_registry(self):
        assert "no metrics" in MetricsRegistry().describe()


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self):
        metrics = MetricsRegistry()

        def hammer():
            for _ in range(500):
                metrics.counter("n")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.value("n") == pytest.approx(8 * 500)
