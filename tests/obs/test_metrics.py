"""The streaming histogram summary the journal folds share."""

import pytest

from repro.obs.metrics import HistogramSummary


def observed(values) -> HistogramSummary:
    summary = HistogramSummary()
    for value in values:
        summary.observe(float(value))
    return summary


class TestHistograms:
    def test_streaming_summary(self):
        summary = observed((1.0, 2.0, 6.0))
        assert summary.count == 3
        assert summary.total == 9.0
        assert summary.minimum == 1.0
        assert summary.maximum == 6.0
        assert summary.mean == 3.0

    def test_empty_summary_as_dict_has_finite_bounds(self):
        as_dict = HistogramSummary().as_dict()
        assert as_dict["min"] == 0.0 and as_dict["max"] == 0.0

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
        summary = observed(range(1, 101)).as_dict()
        for key in ("p50", "p90", "p99"):
            assert key in summary
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["min"] <= summary["p50"] <= summary["max"]

    def test_percentiles_clamp_to_observed_range(self):
        summary = observed((3.0,))
        assert summary.percentile(0.50) == 3.0
        assert summary.percentile(0.99) == 3.0

    def test_empty_summary_percentile_is_zero(self):
        assert HistogramSummary().percentile(0.5) == 0.0

    def test_single_bucket_interpolates_instead_of_collapsing(self):
        """Regression: quantiles inside one bucket used to collapse onto
        the bucket's upper bound (25.0 here), making p50 == p90 == p99.
        Linear interpolation between the observed [min, max] resolves
        sub-bucket ranks."""
        summary = observed(range(11, 21))  # all in the (10, 25] bucket
        assert summary.percentile(0.50) == pytest.approx(15.5)
        assert summary.percentile(0.90) == pytest.approx(19.1)
        assert (
            summary.percentile(0.50)
            < summary.percentile(0.90)
            < summary.percentile(0.99)
        )
        assert summary.percentile(0.99) < 25.0  # never the raw bound

    def test_bucket_estimate_is_order_of_magnitude_right(self):
        summary = observed([0.001] * 90 + [10.0] * 10)
        assert summary.percentile(0.50) < 0.01
        assert summary.percentile(0.99) >= 1.0
