"""Batched vectorized evaluation (S31): the bit-identity contract.

The batched engine's entire value rests on one promise: point ``i`` of
an ``evaluate_each`` call is *bit-identical* to
``model.evaluate(workloads[i], rngs[i])`` — measurements, counters,
fired rules, features, sample streams, and the state each generator is
left in.  These tests pin that promise property-style across all eight
subsystems, and pin the kernel against the scalar solver on the points
a real 8-chain search measures.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.cluster.testbed import Testbed
from repro.core import Collie, EvalCache
from repro.core.batcheval import BatchEvaluator
from repro.core.monitor import AnomalyMonitor
from repro.core.population import PopulationCollie
from repro.core.space import SearchSpace
from repro.hardware.model import SteadyStateModel, solve_batch
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import WorkloadDescriptor
from repro.workloads.appendix import settings_for_subsystem

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


def point_rngs(seed, count):
    """One independent generator per point, as chains each hold one."""
    return [np.random.default_rng(seed + i) for i in range(count)]


def scalar_twins(subsystem, points, seed):
    """``model.evaluate(points[i], rngs[i])`` and the generators after."""
    rngs = point_rngs(seed, len(points))
    measurements = [
        SteadyStateModel(subsystem).evaluate(p, rng)
        for p, rng in zip(points, rngs)
    ]
    return measurements, rngs


def assert_states_equal(left, right):
    assert [r.bit_generator.state for r in left] \
        == [r.bit_generator.state for r in right]


class TestEvaluateManyBitIdentity:
    """Batched evaluation of many points == the scalar path, point by
    point, each point's generator included."""

    @given(letter=letters, seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_to_scalar_loop(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 8)
        scalar, scalar_rngs = scalar_twins(subsystem, points, seed)
        batched_rngs = point_rngs(seed, len(points))
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_each(
            points, batched_rngs
        )
        assert_measurements_equal(scalar, batched)
        assert_states_equal(scalar_rngs, batched_rngs)

    @given(letter=letters, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_cache_backed_batches_stay_identical(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 6)
        scalar, scalar_rngs = scalar_twins(subsystem, points, seed)
        cache = EvalCache()
        evaluator = BatchEvaluator(SteadyStateModel(subsystem, cache=cache))
        cold_rngs = point_rngs(seed, len(points))
        cold = evaluator.evaluate_each(points, cold_rngs)
        warm_rngs = point_rngs(seed, len(points))
        warm = evaluator.evaluate_each(points, warm_rngs)
        assert_measurements_equal(scalar, cold)
        assert_measurements_equal(scalar, warm)
        assert_states_equal(scalar_rngs, cold_rngs)
        assert_states_equal(scalar_rngs, warm_rngs)
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
        """Batched measurements get the scalar verdicts, stability too."""
        subsystem = subsystem_without_rule(letter, dropped)
        points = walk_points(letter, seed, count)
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_each(
            points, point_rngs(seed, count)
        )
        monitor = AnomalyMonitor(subsystem, stability_cv=stability_cv)
        for i, (point, measurement) in enumerate(zip(points, batched)):
            scalar = SteadyStateModel(subsystem).evaluate(
                point, np.random.default_rng(seed + i)
            )
            assert monitor.classify(measurement) == monitor.classify(scalar)

    def test_one_point_call_routes_scalar(self, monkeypatch):
        """Every one-point entry takes the scalar path: the vectorized
        solver is never called."""
        subsystem = get_subsystem("F")
        point = random_points("F", seed=1, count=1)[0]
        model = SteadyStateModel(subsystem)
        vectorized = []
        monkeypatch.setattr(model, "solve_points", vectorized.append)
        evaluator = BatchEvaluator(model)
        scalar_rng = np.random.default_rng(1)
        scalar = SteadyStateModel(subsystem).evaluate(point, scalar_rng)
        rng = np.random.default_rng(1)
        batched = evaluator.evaluate_each([point], [rng])
        assert_measurements_equal([scalar], batched)
        assert rng.bit_generator.state == scalar_rng.bit_generator.state
        (solve,) = evaluator.solve_many([point])
        assert_solves_identical(
            solve, SteadyStateModel(subsystem)._solve(point, "search")
        )
        assert vectorized == []


class TestNegativeNoise:
    """Every evaluation path rejects negative noise, as VendorMonitor does."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda model, points: model.evaluate(points[0]),
            # Many points drawing from one shared generator: a scalar loop.
            lambda model, points: [
                model.evaluate(p, rng=rng)
                for rng in [np.random.default_rng(0)]
                for p in points
            ],
            lambda model, points: BatchEvaluator(model).evaluate_each(
                points, [np.random.default_rng(i) for i in range(len(points))]
            ),
        ],
        ids=["evaluate", "evaluate_many", "evaluate_each"],
    )
    def test_model_paths_raise(self, evaluate):
        # The SteadyStateModel constructor raises before any path runs.
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
    """Oracle: the kernel solves a 10-hour 8-chain search's stream as scalar.

    Gates sit where the SA walk concentrates, which random points rarely
    reach, so this records every workload the chains' testbeds measure,
    solves them with ``solve_batch`` in consecutive groups of eight, and
    re-solves each point on the scalar path.
    """
    measured = []
    run = Testbed.run

    def recording(testbed, workload, *args, **kwargs):
        measured.append(workload)
        return run(testbed, workload, *args, **kwargs)

    monkeypatch.setattr(Testbed, "run", recording)
    PopulationCollie("F", chains=8, seed=1, budget_hours=10).run()
    subsystem = get_subsystem("F")
    model = SteadyStateModel(subsystem)
    batches = [measured[i:i + 8] for i in range(0, len(measured), 8)]
    assert len(batches) > 1000
    for workloads in batches:
        solves = solve_batch(subsystem, workloads)
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
        # Only the stored point is present; random_points repeats it.
        assert present == [point == points[0] for point in points]

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


def test_collie_cached_equals_uncached():
    """A solo search with a cache is the uncached search, event for event."""

    def event_key(event):
        return (
            event.time_seconds,
            event.symptom,
            event.tags,
            workload_to_dict(event.workload),
            sorted(event.counters.items()),
        )

    def report_key(report):
        return (
            [event_key(e) for e in report.events],
            [mfs_to_dict(m) for m in report.anomalies],
            report.experiments,
            report.skipped_points,
            report.elapsed_seconds,
            report.counter_ranking,
        )

    cached = Collie.for_subsystem(
        "H", budget_hours=0.12, seed=3, cache=EvalCache()
    ).run()
    uncached = Collie.for_subsystem("H", budget_hours=0.12, seed=3).run()
    assert report_key(cached) == report_key(uncached)
