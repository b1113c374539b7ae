"""Counter definitions and the vendor monitor's sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import AnomalyMonitor, readings_cv
from repro.hardware.counters import (
    ALL_COUNTERS,
    DIAGNOSTIC_COUNTERS,
    MINIMIZED_COUNTERS,
    PERFORMANCE_COUNTERS,
    CounterSample,
    VendorMonitor,
    average_counters,
    is_diagnostic,
    is_performance,
)
from repro.hardware.model import Measurement
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import WorkloadDescriptor


class TestCounterSets:
    def test_exactly_nine_diagnostic_counters(self):
        """§7.2: "Our vendors provide us with 9 diagnostic counters"."""
        assert len(DIAGNOSTIC_COUNTERS) == 9

    def test_families_are_disjoint_and_cover_all(self):
        assert not set(DIAGNOSTIC_COUNTERS) & set(PERFORMANCE_COUNTERS)
        assert set(ALL_COUNTERS) == (
            set(DIAGNOSTIC_COUNTERS) | set(PERFORMANCE_COUNTERS)
        )

    def test_classifiers(self):
        assert is_diagnostic("rx_wqe_cache_miss")
        assert is_performance("tx_bytes_per_sec")
        assert not is_diagnostic("tx_bytes_per_sec")

    def test_minimized_set_is_throughput_only(self):
        assert MINIMIZED_COUNTERS <= set(PERFORMANCE_COUNTERS)
        assert "pause_duration_us_per_sec" not in MINIMIZED_COUNTERS


class TestVendorMonitor:
    def test_noise_validation(self):
        with pytest.raises(ValueError):
            VendorMonitor(np.random.default_rng(0), noise=-0.1)

    def test_noiseless_sampling_is_exact(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.0)
        sample = monitor.sample({"tx_bytes_per_sec": 123.0}, second=0)
        assert sample["tx_bytes_per_sec"] == 123.0
        assert sample.get("rx_wqe_cache_miss") == 0.0

    def test_noise_perturbs_but_stays_close(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.02)
        values = [
            monitor.sample({"tx_bytes_per_sec": 1e9}, second=i)[
                "tx_bytes_per_sec"
            ]
            for i in range(200)
        ]
        assert np.std(values) / np.mean(values) == pytest.approx(0.02, abs=0.01)
        assert all(v >= 0 for v in values)

    def test_zero_values_stay_zero(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.5)
        sample = monitor.sample({}, second=0)
        assert all(sample.get(name) == 0.0 for name in ALL_COUNTERS)

    def test_sample_window_length_and_seconds(self):
        monitor = VendorMonitor(np.random.default_rng(0))
        window = monitor.sample_window({"tx_bytes_per_sec": 1.0}, 4,
                                       start_second=10)
        assert [s.second for s in window] == [10, 11, 12, 13]


class TestAveraging:
    def test_average_of_empty_is_zero(self):
        averaged = average_counters([])
        assert averaged["tx_bytes_per_sec"] == 0.0

    def test_average_matches_mean(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.0)
        samples = monitor.sample_window({"qpc_cache_miss": 7.0}, 4)
        assert average_counters(samples)["qpc_cache_miss"] == pytest.approx(7.0)


# -- the array formulation, kept as the plain-float window's reference --------


def reference_rows(rng, noise, ideal, window):
    """The window as a ``(window, counters)`` matrix: one normal draw
    over the active (positive) counters, clipped at zero, multiplied in.
    """
    base = np.array([float(ideal.get(name, 0.0)) for name in ALL_COUNTERS])
    rows = np.tile(base, (window, 1))
    if noise > 0:
        jitter = base > 0
        active = int(jitter.sum())
        if active:
            draws = rng.normal(0.0, noise, size=(window, active))
            rows[:, jitter] *= np.maximum(0.0, 1.0 + draws)
    return rows


def reference_average(rows):
    if not len(rows):
        return {name: 0.0 for name in ALL_COUNTERS}
    return dict(zip(ALL_COUNTERS, rows.mean(axis=0).tolist()))


def reference_cv(readings):
    """``std / mean`` of the readings; None when the mean is not
    positive (stable), NaN for an empty window (unstable)."""
    readings = np.array(readings, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = readings.mean()
        if mean <= 0:
            return None
        return float(readings.std() / mean)


#: Column of the readings the stability check reads.
TX = ALL_COUNTERS.index("tx_bytes_per_sec")

#: Ideal counter values: zeros, a tiny and a huge rate, any magnitude in
#: between; an absent key reads 0.
IDEAL = st.dictionaries(
    st.sampled_from(ALL_COUNTERS),
    st.one_of(
        st.sampled_from([0.0, 1e-6, 1e12]),
        st.floats(min_value=0.0, max_value=1e12),
    ),
)


def _measurement(samples):
    return Measurement(
        workload=WorkloadDescriptor(), subsystem_name="F", samples=samples,
        counters={}, directions=(), fired=(), features={},
    )


class TestAgainstTheArrayFormulation:
    """The plain-float window reproduces the array formulation bit for
    bit: readings, averages, CV, verdicts and generator state."""

    @given(
        ideal=IDEAL,
        noise=st.sampled_from([0.0, 0.02, 0.5]),
        window=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_matches_reference(self, ideal, noise, window, seed):
        rng = np.random.default_rng(seed)
        samples = VendorMonitor(rng, noise=noise).sample_window(
            ideal, window, start_second=3
        )
        reference_rng = np.random.default_rng(seed)
        rows = reference_rows(reference_rng, noise, ideal, window)

        assert [s.second for s in samples] == list(range(3, 3 + window))
        assert repr([[s[name] for name in ALL_COUNTERS] for s in samples]) == (
            repr(rows.tolist())
        )
        assert [s.values for s in samples] == [
            dict(zip(ALL_COUNTERS, row)) for row in rows.tolist()
        ]
        assert repr(average_counters(samples)) == repr(reference_average(rows))
        readings = [s.get("tx_bytes_per_sec") for s in samples]
        expected_cv = reference_cv(rows[:, TX])
        assert repr(readings_cv(readings)) == repr(expected_cv)
        measurement = _measurement(samples)
        for threshold in (0.004, 0.02, 0.2):
            monitor = AnomalyMonitor(
                get_subsystem("F"), stability_cv=threshold
            )
            assert monitor.is_stable(measurement) == (
                expected_cv is None or expected_cv <= threshold
            )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("window", range(17))
    def test_noisy_cv_matches_reference_at_every_window(self, window):
        """Windows of 8 and more are summed pairwise by numpy; the CV
        must follow that order, not a sequential one."""
        ideal = {name: 1e9 * (i + 1) for i, name in enumerate(ALL_COUNTERS)}
        for seed in range(40):
            samples = VendorMonitor(
                np.random.default_rng(seed), noise=0.5
            ).sample_window(ideal, window)
            rows = reference_rows(
                np.random.default_rng(seed), 0.5, ideal, window
            )
            readings = [s["tx_bytes_per_sec"] for s in samples]
            assert repr(readings_cv(readings)) == repr(
                reference_cv(rows[:, TX])
            )
            assert repr(average_counters(samples)) == repr(
                reference_average(rows)
            )

    def test_samples_without_rows_average_like_rows(self):
        monitor = VendorMonitor(np.random.default_rng(5), noise=0.02)
        rowed = monitor.sample_window({"tx_bytes_per_sec": 3e9}, 4)
        mapped = [CounterSample(s.second, values=dict(s.values)) for s in rowed]
        assert repr(average_counters(mapped)) == repr(average_counters(rowed))

    def test_empty_window_is_unstable(self):
        monitor = AnomalyMonitor(get_subsystem("F"))
        assert not monitor.is_stable(_measurement([]))
