"""Memoized experiment evaluation: bit-identity, keys, persistence."""

import dataclasses
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evalcache import (
    FORMAT_VERSION,
    EvalCache,
    canonical_point,
    describe_stats,
    subsystem_fingerprint,
)
from repro.core.space import SearchSpace
from repro.hardware.features import extract_features
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import get_subsystem

LETTERS = "ABCDEFGH"

letters = st.sampled_from(LETTERS)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_point(letter, seed):
    space = SearchSpace.for_subsystem(get_subsystem(letter))
    return space.random(np.random.default_rng(seed))


class TestBitIdentity:
    """Caching must be observably transparent, noise included."""

    @given(letter=letters, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_cached_evaluation_bit_identical(self, letter, seed):
        subsystem = get_subsystem(letter)
        workload = random_point(letter, seed)
        cache = EvalCache()
        plain = SteadyStateModel(subsystem).evaluate(
            workload, np.random.default_rng(seed)
        )
        miss = SteadyStateModel(subsystem, cache=cache).evaluate(
            workload, np.random.default_rng(seed)
        )
        hit = SteadyStateModel(subsystem, cache=cache).evaluate(
            workload, np.random.default_rng(seed)
        )
        for via_cache in (miss, hit):
            assert via_cache.counters == plain.counters
            assert via_cache.pause_ratio == plain.pause_ratio
            assert via_cache.directions == plain.directions
            assert via_cache.fired == plain.fired
            assert via_cache.features == plain.features
            assert via_cache.samples == plain.samples
        assert cache.hits == 1 and cache.misses == 1

    @given(letter=letters, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_noise_still_follows_the_rng(self, letter, seed):
        """A hit consumes the caller's RNG exactly like a miss would."""
        subsystem = get_subsystem(letter)
        workload = random_point(letter, seed)
        cache = EvalCache()
        model = SteadyStateModel(subsystem, cache=cache)
        rng = np.random.default_rng(seed)
        first = model.evaluate(workload, rng)
        second = model.evaluate(workload, rng)  # hit, fresh noise draws
        plain_rng = np.random.default_rng(seed)
        plain_model = SteadyStateModel(subsystem)
        assert plain_model.evaluate(workload, plain_rng).counters \
            == first.counters
        assert plain_model.evaluate(workload, plain_rng).counters \
            == second.counters


class TestKeys:
    @given(letter=letters, seed_a=seeds, seed_b=seeds)
    @settings(max_examples=40, deadline=None)
    def test_no_collision_across_feature_vectors(self, letter, seed_a, seed_b):
        """Different feature vectors can never share a cache key."""
        subsystem = get_subsystem(letter)
        point_a = random_point(letter, seed_a)
        point_b = random_point(letter, seed_b)
        if extract_features(point_a, subsystem) != extract_features(
            point_b, subsystem
        ):
            assert canonical_point(point_a) != canonical_point(point_b)

    @given(letter=letters, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_identical_points_share_a_key(self, letter, seed):
        point = random_point(letter, seed)
        clone = dataclasses.replace(point)
        assert canonical_point(point) == canonical_point(clone)

    def test_duty_cycle_distinguishes_points(self):
        point = random_point("F", 7)
        shifted = dataclasses.replace(point, duty_cycle=0.125)
        assert canonical_point(point) != canonical_point(shifted)

    def test_fingerprint_tracks_content_not_name(self):
        """Same Table 1 letter, different config → different entries."""
        original = get_subsystem("A")
        modified = dataclasses.replace(original, rnic=get_subsystem("B").rnic)
        assert modified.name == original.name
        assert subsystem_fingerprint(modified) != subsystem_fingerprint(
            original
        )

    def test_fingerprints_unique_across_table1(self):
        prints = {subsystem_fingerprint(get_subsystem(x)) for x in LETTERS}
        assert len(prints) == len(LETTERS)

    def test_freed_subsystem_never_lends_its_fingerprint(self):
        """A subsystem allocated where a freed one lived gets its own key.

        A short-lived copy (``corun_subsystem``, a fix ledger step) is
        keyed and dropped; the fixed subsystem built next may land at
        the same address, and must not inherit the copy's fingerprint.
        """
        original = get_subsystem("F")
        point = random_point("F", 1)
        cache = EvalCache()

        def true_key(subsystem):
            fingerprint = subsystem_fingerprint(subsystem)
            return f"{fingerprint}|{canonical_point(point)}"

        for _ in range(200):
            copy = dataclasses.replace(original)
            assert cache.key(copy, point) == true_key(copy)
            # What apply_fixes does: drop one rule, rebuild the subsystem
            # (the copy is freed just before it is allocated).
            rnic = dataclasses.replace(
                original.rnic, rules=original.rnic.rules[1:]
            )
            del copy
            fixed = dataclasses.replace(original, rnic=rnic)
            assert cache.key(fixed, point) == true_key(fixed)
            del fixed


class TestDiskStore:
    def test_round_trip_serves_hits(self, tmp_path):
        subsystem = get_subsystem("H")
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        model = SteadyStateModel(subsystem, cache=cache)
        points = [random_point("H", seed) for seed in range(5)]
        for point in points:
            model.evaluate(point, np.random.default_rng(0))
        cache.save()

        warm = EvalCache(path=path)
        assert warm.loaded_entries == len(points)
        warm_model = SteadyStateModel(subsystem, cache=warm)
        for seed, point in enumerate(points):
            fresh = SteadyStateModel(subsystem).evaluate(
                point, np.random.default_rng(seed)
            )
            served = warm_model.evaluate(point, np.random.default_rng(seed))
            assert served.counters == fresh.counters
        assert warm.hits == len(points) and warm.misses == 0

    def test_stale_rule_tags_drop_the_entry(self, tmp_path):
        subsystem = get_subsystem("H")
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        point = random_point("H", 3)
        SteadyStateModel(subsystem, cache=cache).evaluate(
            point, np.random.default_rng(0)
        )
        cache.save()

        payload = json.loads((tmp_path / "cache.json").read_text())
        for entry in payload["entries"].values():
            entry["fired"] = [{"tag": "GONE-AFTER-FIX", "factor": 1.0}]
        (tmp_path / "cache.json").write_text(json.dumps(payload))

        warm = EvalCache(path=path)
        assert warm.lookup(subsystem, point) is None  # dropped, not replayed
        served = SteadyStateModel(subsystem, cache=warm).evaluate(
            point, np.random.default_rng(0)
        )
        fresh = SteadyStateModel(subsystem).evaluate(
            point, np.random.default_rng(0)
        )
        assert served.counters == fresh.counters

    def test_interrupted_save_keeps_the_previous_store(self, tmp_path):
        subsystem = get_subsystem("H")
        path = tmp_path / "cache.json"
        cache = EvalCache(path=str(path))
        model = SteadyStateModel(subsystem, cache=cache)
        points = [random_point("H", seed) for seed in range(6)]
        for point in points[:3]:
            model.evaluate(point, np.random.default_rng(0))
        cache.save()
        previous = path.read_bytes()

        for point in points[3:]:
            model.evaluate(point, np.random.default_rng(0))
        # Poison the last new entry in store order: the encoder raises
        # after at least the other two new entries have been written.
        last = max(points[3:], key=lambda point: cache.key(subsystem, point))
        solve = cache.lookup(subsystem, last)
        cache.store(subsystem, last, dataclasses.replace(
            solve, features={**solve.features, "bad": object()}
        ))
        with pytest.raises(TypeError, match="not JSON serializable"):
            cache.save()

        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["cache.json"]
        warm = EvalCache(path=str(path))
        assert warm.loaded_entries == 3
        for point in points[:3]:
            assert warm.lookup(subsystem, point) == cache.lookup(
                subsystem, point
            )

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {"format_version": FORMAT_VERSION + 1, "entries": {}}
        ))
        with pytest.raises(ValueError, match="unsupported cache format"):
            EvalCache(path=str(path))

    def test_load_stats_reads_persisted_statistics(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        SteadyStateModel(get_subsystem("H"), cache=cache).evaluate(
            random_point("H", 1), np.random.default_rng(0), phase="probe"
        )
        cache.save()
        stats = EvalCache.load_stats(path)
        assert stats["misses"] == 1
        assert "probe" in stats["phases"]
        assert "probe" in describe_stats(stats)


class TestStoreFormat:
    """``save`` streams the bytes a one-shot ``json.dumps`` would write."""

    @pytest.mark.parametrize("letter", ["F", "H"])
    def test_save_matches_the_one_shot_encoding(self, tmp_path, letter):
        subsystem = get_subsystem(letter)
        points = [random_point(letter, seed) for seed in range(9)]
        first = tmp_path / "first.json"
        donor = EvalCache(path=str(first))
        model = SteadyStateModel(subsystem, cache=donor)
        for point in points[:6]:
            model.evaluate(point, np.random.default_rng(0))
        donor.save()
        payload = json.loads(first.read_text())
        stale_key = donor.key(subsystem, points[0])
        payload["entries"][stale_key]["fired"].append(
            {"tag": "GONE-AFTER-FIX", "factor": 1.0}
        )
        first.write_text(json.dumps(payload))

        # points[0..3]: loaded, never looked up (points[0] stale);
        # points[4..5]: loaded and rehydrated; points[6..8]: fresh.
        cache = EvalCache(path=str(first))
        model = SteadyStateModel(subsystem, cache=cache)
        for point in points[4:]:
            model.evaluate(point, np.random.default_rng(0))
        assert cache.stats_dict()["hits"] == 2
        path = tmp_path / "second.json"
        cache.save(str(path))

        assert path.read_text() == json.dumps(
            {
                "format_version": 1,
                "entries": cache.export_entries(),
                "stats": cache.stats_dict(),
            },
            sort_keys=True,
        )
        reloaded = EvalCache(path=str(path))
        assert reloaded.loaded_entries == len(points)
        assert reloaded.lookup(subsystem, points[0]) is None
        for point in points[1:]:
            served = reloaded.lookup(subsystem, point)
            assert served is not None
            assert served == cache.lookup(subsystem, point)


class TestTransportAndStats:
    def test_import_keeps_existing_entries(self):
        subsystem = get_subsystem("F")
        point = random_point("F", 1)
        donor = EvalCache()
        SteadyStateModel(subsystem, cache=donor).evaluate(
            point, np.random.default_rng(0)
        )
        receiver = EvalCache()
        solve = SteadyStateModel(subsystem, cache=receiver).evaluate(
            point, np.random.default_rng(0)
        )
        added = receiver.import_entries(donor.export_entries())
        assert added == 0  # existing key wins
        again = SteadyStateModel(subsystem, cache=receiver).evaluate(
            point, np.random.default_rng(0)
        )
        assert again.counters == solve.counters

    def test_merge_stats_accumulates_phases(self):
        cache = EvalCache()
        cache.merge_stats(
            {"phases": {"mfs": {"hits": 3, "misses": 1, "seconds": 0.5}}}
        )
        cache.merge_stats(
            {"phases": {"mfs": {"hits": 1, "misses": 1, "seconds": 0.25}}}
        )
        phases = cache.phase_stats()
        assert phases["mfs"].hits == 4
        assert phases["mfs"].misses == 2
        assert phases["mfs"].seconds == pytest.approx(0.75)
        assert phases["mfs"].hit_rate == pytest.approx(4 / 6)

    def test_snapshot_scopes_a_subphase(self):
        subsystem = get_subsystem("F")
        cache = EvalCache()
        model = SteadyStateModel(subsystem, cache=cache)
        model.evaluate(random_point("F", 1), np.random.default_rng(0))
        before = cache.snapshot()
        model.evaluate(random_point("F", 1), np.random.default_rng(0))
        hits, misses = cache.snapshot()
        assert (hits - before[0], misses - before[1]) == (1, 0)

    def test_charge_adds_to_the_phase(self):
        cache = EvalCache()
        cache.charge("rank", 0.25)
        cache.charge("rank", 0.5)
        assert cache.phase_stats()["rank"].seconds == pytest.approx(0.75)
        assert "rank" in cache.describe()

    def test_thread_safety_under_concurrent_evaluation(self):
        subsystem = get_subsystem("F")
        cache = EvalCache()
        points = [random_point("F", seed) for seed in range(8)]

        def worker(offset):
            model = SteadyStateModel(subsystem, cache=cache)
            for point in points[offset::2] + points:
                model.evaluate(point, np.random.default_rng(0))

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == len(points)
        assert cache.hits + cache.misses == 3 * len(points)
