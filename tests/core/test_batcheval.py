"""Batched vectorized evaluation (S31): the bit-identity contract.

The batched engine's entire value rests on one promise: with a known
point set, ``evaluate_many`` is *bit-identical* to the scalar loop —
measurements, counters, fired rules, features, sample streams, and the
caller's RNG (draw count, order, final state).  These tests pin that
promise property-style across all eight subsystems, then pin every
wired consumer (MFS ladders and box validation, the Perftest sweep,
Collie end to end) against its scalar twin.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.baselines.perftest import PerftestGenerator
from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import Testbed
from repro.core import Collie, EvalCache
from repro.core.batcheval import BatchEvaluator
from repro.core.mfs import MFSExtractor
from repro.core.monitor import AnomalyMonitor
from repro.core.population import PopulationCollie
from repro.core.space import SearchSpace
from repro.hardware import model as model_module
from repro.hardware.model import SteadyStateModel, solve_batch
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import WorkloadDescriptor
from repro.obs.metrics import MetricsRegistry
from repro.workloads.appendix import APPENDIX_SETTINGS, settings_for_subsystem

LETTERS = "ABCDEFGH"

letters = st.sampled_from(LETTERS)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_points(letter, seed, count):
    """Random batch with duplicates mixed in (the dedup-relevant shape)."""
    space = SearchSpace.for_subsystem(get_subsystem(letter))
    rng = np.random.default_rng(seed)
    points = [space.random(rng) for _ in range(count)]
    # Repeat a prefix so the batch always contains exact duplicates.
    return points + points[: max(1, count // 3)]


def walk_points(letter, seed, count):
    """``count`` points of a mutation walk, duplicates mixed in.

    Rule gates sit where a search walks and uniform points rarely land,
    so the walk starts from an Appendix A trigger of the subsystem (F
    and H have them) or a random point, and mostly mutates its last
    point; one point in five repeats an earlier one.
    """
    space = SearchSpace.for_subsystem(get_subsystem(letter))
    rng = np.random.default_rng(seed)
    starts = [s.workload for s in settings_for_subsystem(letter)]
    current = (
        starts[int(rng.integers(len(starts)))]
        if starts and rng.random() < 0.5 else space.random(rng)
    )
    points = []
    while len(points) < count:
        if points and rng.random() < 0.2:
            points.append(points[int(rng.integers(len(points)))])
            continue
        current = space.mutate(current, rng)
        points.append(current)
    return points


def subsystem_without_rule(letter, dropped):
    """The subsystem, or a copy with one rule (or, for ``"all"``, every
    rule) removed as apply_fixes does."""
    subsystem = get_subsystem(letter)
    if dropped is None:
        return subsystem
    rules = subsystem.rnic.rules
    if dropped == "all":
        rules = ()
    else:
        index = dropped % len(rules)
        rules = rules[:index] + rules[index + 1:]
    return dataclasses.replace(
        subsystem, rnic=dataclasses.replace(subsystem.rnic, rules=rules)
    )


#: No rule removed, one rule removed (by index modulo the table), or all.
dropped_rules = st.one_of(
    st.none(), st.integers(min_value=0, max_value=63), st.just("all")
)


def assert_solves_identical(batched, scalar):
    """Equal down to key order, float ``repr`` and fired-rule order."""
    assert repr(list(batched.features.items())) == repr(
        list(scalar.features.items())
    )
    assert repr(batched.directions) == repr(scalar.directions)
    assert repr(list(batched.ideal_counters.items())) == repr(
        list(scalar.ideal_counters.items())
    )
    assert batched.fired == scalar.fired
    assert repr(batched.fired) == repr(scalar.fired)


def assert_measurements_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.workload == b.workload
        assert a.subsystem_name == b.subsystem_name
        assert list(a.counters.items()) == list(b.counters.items())
        assert a.samples == b.samples
        assert a.directions == b.directions
        assert a.fired == b.fired
        assert list(a.features.items()) == list(b.features.items())
        assert a.latency == b.latency


class TestEvaluateManyBitIdentity:
    """evaluate_many == the scalar loop, RNG stream included."""

    @given(letter=letters, seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_to_scalar_loop(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 8)
        scalar_rng = np.random.default_rng(seed)
        scalar = [
            SteadyStateModel(subsystem).evaluate(p, scalar_rng)
            for p in points
        ]
        batched_rng = np.random.default_rng(seed)
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_many(
            points, rng=batched_rng
        )
        assert_measurements_equal(scalar, batched)
        assert scalar_rng.bit_generator.state == batched_rng.bit_generator.state

    @given(letter=letters, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_cache_backed_batches_stay_identical(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 6)
        scalar_rng = np.random.default_rng(seed)
        scalar = [
            SteadyStateModel(subsystem).evaluate(p, scalar_rng)
            for p in points
        ]
        cache = EvalCache()
        evaluator = BatchEvaluator(SteadyStateModel(subsystem, cache=cache))
        cold_rng = np.random.default_rng(seed)
        cold = evaluator.evaluate_many(points, rng=cold_rng)
        warm_rng = np.random.default_rng(seed)
        warm = evaluator.evaluate_many(points, rng=warm_rng)
        assert_measurements_equal(scalar, cold)
        assert_measurements_equal(scalar, warm)
        assert scalar_rng.bit_generator.state == warm_rng.bit_generator.state
        assert len(cache) == len({str(workload_to_dict(p)) for p in points})

    @given(
        letter=letters,
        seed=seeds,
        count=st.integers(min_value=1, max_value=40),
        dropped=dropped_rules,
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_batch_matches_scalar_solver(
        self, letter, seed, count, dropped
    ):
        subsystem = subsystem_without_rule(letter, dropped)
        points = walk_points(letter, seed, count)
        model = SteadyStateModel(subsystem)
        for point, solve in zip(points, solve_batch(subsystem, points)):
            assert_solves_identical(solve, model._solve(point, "search"))

    @given(
        letter=letters,
        seed=seeds,
        count=st.integers(min_value=2, max_value=40),
        dropped=dropped_rules,
        stability_cv=st.sampled_from([0.004, 0.01, 0.02, 0.2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_primed_verdicts_match_scalar_classify(
        self, letter, seed, count, dropped, stability_cv
    ):
        """The batch stability pass equals is_stable on scalar samples."""
        subsystem = subsystem_without_rule(letter, dropped)
        points = walk_points(letter, seed, count)
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_each(
            points, [np.random.default_rng(seed + i) for i in range(count)]
        )
        monitor = AnomalyMonitor(subsystem, stability_cv=stability_cv)
        for i, (point, measurement) in enumerate(zip(points, batched)):
            scalar = SteadyStateModel(subsystem).evaluate(
                point, np.random.default_rng(seed + i)
            )
            assert scalar.tx_cv is None
            if scalar.counters["tx_bytes_per_sec"] > 0:
                assert measurement.tx_cv is not None
            assert monitor.classify(measurement) == monitor.classify(scalar)

    def test_one_point_call_routes_scalar(self):
        """Every one-point entry takes the scalar path, counted as such."""
        subsystem = get_subsystem("F")
        point = random_points("F", seed=1, count=1)[0]
        metrics = MetricsRegistry()
        evaluator = BatchEvaluator(
            SteadyStateModel(subsystem), metrics=metrics
        )
        scalar_rng = np.random.default_rng(1)
        scalar = SteadyStateModel(subsystem).evaluate(point, scalar_rng)
        for evaluate in (
            lambda rng: evaluator.evaluate_many([point], rng=rng),
            lambda rng: evaluator.evaluate_each([point], [rng]),
        ):
            rng = np.random.default_rng(1)
            assert_measurements_equal([scalar], evaluate(rng))
            assert rng.bit_generator.state == scalar_rng.bit_generator.state
        (solve,) = evaluator.solve_many([point])
        assert_solves_identical(
            solve, SteadyStateModel(subsystem)._solve(point, "search")
        )
        assert metrics.value("batcheval.points", mode="scalar") == 3.0
        assert metrics.value("batcheval.points", mode="vectorized") == 0.0


class TestNegativeNoise:
    """Every evaluation path rejects negative noise, as VendorMonitor does."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda model, points: model.evaluate(points[0]),
            lambda model, points: model.evaluate_many(
                points, rng=np.random.default_rng(0)
            ),
            lambda model, points: BatchEvaluator(model).evaluate_each(
                points, [np.random.default_rng(i) for i in range(len(points))]
            ),
        ],
        ids=["evaluate", "evaluate_many", "evaluate_each"],
    )
    def test_model_paths_raise(self, evaluate):
        with pytest.raises(ValueError, match="noise must be non-negative"):
            model = SteadyStateModel(get_subsystem("H"), noise=-0.1)
            evaluate(model, [WorkloadDescriptor()] * 3)

    def test_population_raises(self):
        with pytest.raises(ValueError, match="noise must be non-negative"):
            PopulationCollie(
                "H", chains=2, seed=1, budget_hours=0.2, noise=-0.1
            ).run()


@pytest.mark.slow
def test_solve_batch_matches_scalar_on_the_search_stream(monkeypatch):
    """Oracle: every batched solve of a 10-hour 8-chain search is scalar.

    Gates sit where the SA walk concentrates, which random points rarely
    reach, so this records every ``solve_batch`` input of the real
    generation stream and re-solves each point on the scalar path.
    """
    calls = []
    batched = model_module.solve_batch

    def recording(subsystem, workloads):
        solves = batched(subsystem, workloads)
        calls.append((subsystem, list(workloads), solves))
        return solves

    monkeypatch.setattr(model_module, "solve_batch", recording)
    PopulationCollie("F", chains=8, seed=1, budget_hours=10).run()
    assert len(calls) > 1000
    for subsystem, workloads, solves in calls:
        model = SteadyStateModel(subsystem)
        assert len(solves) == len(workloads)
        for point, solve in zip(workloads, solves):
            assert_solves_identical(solve, model._solve(point, "search"))


class TestBulkCacheApi:
    """get_many/put_many/peek_many: one fingerprint, exact statistics."""

    def _solves(self, subsystem, points):
        return solve_batch(subsystem, points)

    def test_get_many_counts_like_scalar_lookups(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=3, count=4)
        unique = points[: len(set(map(str, points)))]
        cache = EvalCache()
        cache.put_many(subsystem, unique[:2], self._solves(subsystem, unique[:2]))
        got = cache.get_many(subsystem, unique, phase="search")
        assert [s is not None for s in got[:2]] == [True, True]
        assert all(s is None for s in got[2:])
        assert cache.hits == 2
        assert cache.misses == len(unique) - 2
        stats = cache.phase_stats()["search"]
        assert stats.hits == 2 and stats.misses == len(unique) - 2

    def test_peek_many_is_statless(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=4, count=3)
        cache = EvalCache()
        cache.put_many(subsystem, points[:1], self._solves(subsystem, points[:1]))
        present = cache.peek_many(subsystem, points)
        assert present[0] is True
        assert cache.hits == 0 and cache.misses == 0
        assert cache.phase_stats() == {}
        # peek agrees with contains
        for point, hit in zip(points, present):
            assert hit == cache.contains(subsystem, point)

    def test_get_many_fires_observer_per_point_in_order(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=5, count=3)[:3]
        cache = EvalCache()
        cache.put_many(subsystem, points[:1], self._solves(subsystem, points[:1]))
        events = []
        cache.observer = lambda phase, hit: events.append((phase, hit))
        cache.get_many(subsystem, points, phase="mfs")
        assert events == [("mfs", True), ("mfs", False), ("mfs", False)]

    def test_put_many_roundtrips_through_export_import(self):
        subsystem = get_subsystem("G")
        points = random_points("G", seed=6, count=3)
        cache = EvalCache()
        cache.put_many(subsystem, points, self._solves(subsystem, points))
        clone = EvalCache()
        clone.import_entries(cache.export_entries())
        got = clone.get_many(subsystem, points)
        direct = cache.get_many(subsystem, points)
        for a, b in zip(got, direct):
            assert a is not None and b is not None
            assert a.ideal_counters == b.ideal_counters
            assert a.directions == b.directions
            assert a.fired == b.fired
            assert a.features == b.features


class TestMFSPresolve:
    """Presolved MFS extraction == scalar extraction, probe for probe.

    The ladder presolve batches exactly when a cache is attached; with
    ``cache=None`` it is a no-op and extraction runs the scalar path.
    """

    def _extract(self, cache):
        setting = next(s for s in APPENDIX_SETTINGS if s.subsystem == "H")
        subsystem = get_subsystem("H")
        space = SearchSpace.for_subsystem(subsystem)
        monitor = AnomalyMonitor(subsystem)
        testbed = Testbed(subsystem, clock=SimulatedClock(), cache=cache)
        rng = np.random.default_rng(0)
        presolved = []

        def probe(candidate):
            result = testbed.run(candidate, rng=rng, phase="mfs")
            return monitor.classify(result.measurement).symptom

        def presolve(points):
            presolved.append(testbed.presolve(points, phase="mfs"))
            return presolved[-1]

        extractor = MFSExtractor(space, probe, presolve=presolve)
        mfs = extractor.construct(
            setting.workload, setting.expected_symptom, at_seconds=0.0
        )
        return mfs, extractor.experiments, testbed, rng, presolved

    def test_presolved_extraction_matches_scalar(self):
        (
            scalar_mfs, scalar_probes, scalar_testbed, scalar_rng,
            scalar_presolved,
        ) = self._extract(cache=None)
        cache = EvalCache()
        (
            batched_mfs, batched_probes, batched_testbed, batched_rng,
            batched_presolved,
        ) = self._extract(cache=cache)
        assert scalar_presolved and not any(scalar_presolved)
        assert sum(batched_presolved) > 0
        assert scalar_mfs is not None
        assert mfs_to_dict(batched_mfs) == mfs_to_dict(scalar_mfs)
        assert batched_probes == scalar_probes
        assert batched_testbed.clock.now == scalar_testbed.clock.now
        assert (
            scalar_rng.bit_generator.state == batched_rng.bit_generator.state
        )
        assert len(cache) > 0
        # The ladder presolve deduplicates and back-fills: the scalar
        # replay over it must be mostly hits.
        stats = cache.phase_stats()["mfs"]
        assert stats.hits > stats.misses


class TestWiredConsumers:
    """Every batched call site against its scalar twin."""

    def test_perftest_sweep_batched_equals_scalar(self):
        scalar = PerftestGenerator("C")
        batched = PerftestGenerator("C")
        found_scalar = scalar.sweep(seed=0, limit=260, batch_size=0)
        found_batched = batched.sweep(seed=0, limit=260, batch_size=64)
        assert found_scalar == found_batched
        assert scalar.testbed.clock.now == batched.testbed.clock.now
        assert (
            scalar.testbed.experiments_run == batched.testbed.experiments_run
        )

    def test_perftest_batch_size_one_is_the_scalar_path(self):
        generator = PerftestGenerator("C")
        baseline = PerftestGenerator("C")
        assert generator.sweep(seed=0, limit=40, batch_size=1) \
            == baseline.sweep(seed=0, limit=40, batch_size=0)

    @staticmethod
    def _event_key(event):
        return (
            event.time_seconds,
            event.symptom,
            event.tags,
            workload_to_dict(event.workload),
            sorted(event.counters.items()),
        )

    def test_collie_batch_on_off_identical(self):
        def report_key(report):
            return (
                [self._event_key(e) for e in report.events],
                [mfs_to_dict(m) for m in report.anomalies],
                report.experiments,
                report.skipped_points,
                report.elapsed_seconds,
                report.counter_ranking,
            )

        # The MFS ladder presolve batches only into a cache, so the
        # uncached run is the scalar path.
        on = Collie.for_subsystem(
            "H", budget_hours=0.12, seed=3, cache=EvalCache()
        ).run()
        off = Collie.for_subsystem("H", budget_hours=0.12, seed=3).run()
        assert report_key(on) == report_key(off)

    def test_batched_run_reports_vectorized_metrics(self):
        metrics = MetricsRegistry()
        testbed = Testbed(
            "F", clock=SimulatedClock(), cache=EvalCache(), metrics=metrics,
        )
        space = SearchSpace.for_subsystem(testbed.subsystem)
        rng = np.random.default_rng(0)
        points = [space.random(rng) for _ in range(6)] * 2
        testbed.run_many(points, rng=rng)
        assert metrics.value("batcheval.points", mode="vectorized") \
            == len(points)
        batch_sizes = metrics.histogram("batcheval.batch_size", phase="search")
        assert batch_sizes.count == 1 and batch_sizes.maximum == 6.0
        # One per-point-seconds observation per evaluate_many call.
        assert metrics.histogram(
            "batcheval.point_seconds", phase="search"
        ).count == 1
