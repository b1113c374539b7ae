"""Memoized experiment evaluation: bit-identity, keys, persistence."""

import base64
import dataclasses
import json
import os
import shutil
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import run_campaign
from repro.analysis.serialize import workload_from_list, workload_to_list
from repro.cli import main
from repro.core.evalcache import (
    FORMAT_VERSION,
    EvalCache,
    canonical_point,
    describe_stats,
    subsystem_fingerprint,
)
from repro.core.executor import worker_cache, worker_result
from repro.core.space import SearchSpace
from repro.hardware.coexist import CoRunModel
from repro.hardware.counters import ALL_COUNTERS
from repro.hardware.features import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    extract_features,
)
from repro.hardware.model import SteadyStateModel
from repro.hardware.rules import FiredRule
from repro.hardware.subsystems import get_subsystem

#: A format-1 store: what ``search H --hours 0.3 --seed 2 --cache`` saved
#: before format 2 (46 entries, one hit).
FORMAT1_STORE = Path(__file__).parent / "fixtures" / "cache_v1_H_seed2.json"

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
            return subsystem_fingerprint(subsystem), point

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
        solve = cache.lookup(subsystem, point)
        gone = dataclasses.replace(
            subsystem.rnic.rules[0], tag="GONE-AFTER-FIX"
        )
        cache.store(subsystem, point, dataclasses.replace(
            solve, fired=(*solve.fired, FiredRule(rule=gone, factor=1.0))
        ))
        cache.save()

        warm = EvalCache(path=path)
        assert warm.loaded_entries == 1
        assert warm.lookup(subsystem, point) is None  # dropped, not replayed
        assert len(warm) == 0
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
        # after the other two new entries have been written.
        last = points[-1]
        solve = cache.lookup(subsystem, last)
        cache.store(subsystem, last, dataclasses.replace(
            solve, features={**solve.features, "bad": object()}
        ))
        with pytest.raises(ValueError, match="cannot store 39 features"):
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


def _exact(solve):
    """A solve's every field, each float as its IEEE bytes (so NaN and
    -0.0 compare), features in order and counters by name."""

    def bits(value):
        if isinstance(value, float):
            return "float", struct.pack("<d", value)
        return type(value).__name__, value

    return (
        [tuple(map(bits, dataclasses.astuple(d))) for d in solve.directions],
        [(fired.rule, bits(fired.factor)) for fired in solve.fired],
        [(name, bits(value)) for name, value in solve.features.items()],
        {name: bits(value) for name, value in solve.ideal_counters.items()},
    )


def _packed_values(solve):
    """The floats a store line packs, restated from the format's
    definition: each direction's six rates, the numeric features in
    FEATURE_NAMES order, the ideal counters in ALL_COUNTERS order and
    the fired factors."""
    values = []
    for direction in solve.directions:
        values += dataclasses.astuple(direction)[1:]
    values += [
        solve.features[name] for name in FEATURE_NAMES
        if name not in CATEGORICAL_FEATURES
    ]
    values += [solve.ideal_counters[name] for name in ALL_COUNTERS]
    values += [fired.factor for fired in solve.fired]
    return values


class TestStoreFormat:
    """Format 2: a header line, then one packed line per entry."""

    @pytest.mark.parametrize("letter", ["F", "H"])
    def test_save_writes_the_v2_layout(self, tmp_path, letter):
        subsystem = get_subsystem(letter)
        points = [random_point(letter, seed) for seed in range(9)]
        first = tmp_path / "first.json"
        donor = EvalCache(path=str(first))
        model = SteadyStateModel(subsystem, cache=donor)
        for point in points[:6]:
            model.evaluate(point, np.random.default_rng(0))
        donor.save()
        loaded = first.read_text().splitlines()[1:]

        # points[0..3]: loaded, never looked up; points[4..5]: loaded
        # and unpacked; points[6..8]: fresh.
        cache = EvalCache(path=str(first))
        model = SteadyStateModel(subsystem, cache=cache)
        for point in points[4:]:
            model.evaluate(point, np.random.default_rng(0))
        assert cache.stats_dict()["hits"] == 2
        path = tmp_path / "second.json"
        cache.save(str(path))

        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {
            "format_version": FORMAT_VERSION, "stats": cache.stats_dict()
        }
        assert FORMAT_VERSION == 2
        assert lines[:6] == loaded  # loaded lines go out as they came in
        assert lines == cache.export_entries()
        assert len(lines) == len(points)
        for point, line in zip(points, lines):
            solve = cache.lookup(subsystem, point)
            fingerprint, workload, count, categorical, tags, packed = (
                json.loads(line)
            )
            assert fingerprint == subsystem_fingerprint(subsystem)
            assert workload == workload_to_list(point)
            assert count == len(solve.directions)
            assert categorical == [
                solve.features[name] for name in CATEGORICAL_FEATURES
            ]
            assert tags == [fired.rule.tag for fired in solve.fired]
            values = _packed_values(solve)
            assert base64.b64decode(packed) == struct.pack(
                f"<{len(values)}d", *values
            )
        reloaded = EvalCache(path=str(path))
        assert reloaded.loaded_entries == len(points)
        for point in points:
            assert _exact(reloaded.lookup(subsystem, point)) == _exact(
                cache.lookup(subsystem, point)
            )


class TestCodec:
    """A store line holds a solve bit for bit, or refuses it."""

    @pytest.mark.parametrize("letter", LETTERS)
    def test_solo_and_corun_solves_round_trip(self, letter):
        subsystem = get_subsystem(letter)
        victim = random_point(letter, 99)
        points = [random_point(letter, seed) for seed in range(12)]
        for corun in (False, True):
            donor = EvalCache()
            if corun:
                model = CoRunModel(subsystem, victim, 0.5, cache=donor)
            else:
                model = SteadyStateModel(subsystem, cache=donor)
            for point in points:
                model.evaluate(point, np.random.default_rng(0))
            receiver = EvalCache()
            assert receiver.import_entries(donor.export_entries()) == len(
                donor
            )
            for point in points:
                served = receiver.lookup(model.subsystem, point)
                assert _exact(served) == _exact(
                    donor.lookup(model.subsystem, point)
                )

    def test_nan_and_negative_zero_survive(self):
        subsystem = get_subsystem("F")
        point = random_point("F", 1)
        donor = EvalCache()
        SteadyStateModel(subsystem, cache=donor).evaluate(
            point, np.random.default_rng(0)
        )
        solve = donor.lookup(subsystem, point)
        odd = dataclasses.replace(
            solve,
            features={**solve.features, "avg_msg": -0.0,
                      "qpc_miss": float("nan")},
            ideal_counters={**solve.ideal_counters,
                            "rx_wqe_cache_miss": float("-inf")},
        )
        donor.store(subsystem, point, odd)
        receiver = EvalCache()
        receiver.import_entries(donor.export_entries())
        assert _exact(receiver.lookup(subsystem, point)) == _exact(odd)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda s: {"features": {
                k: v for k, v in s.features.items() if k != "duty_cycle"
            }}, "cannot store 37 features"),
            (lambda s: {"features": {
                ("duty" if k == "duty_cycle" else k): v
                for k, v in s.features.items()
            }}, "without 'duty_cycle'"),
            (lambda s: {"ideal_counters": {
                **s.ideal_counters, "extra_counter": 1.0
            }}, "cannot store 15 counters"),
            (lambda s: {"features": {**s.features, "avg_msg": "big"}},
             "cannot store a solve"),
            (lambda s: {"directions": tuple(
                dataclasses.replace(d, name="up") for d in s.directions
            )}, "cannot store directions"),
        ],
    )
    def test_a_solve_the_line_cannot_hold_is_refused(self, change, message):
        subsystem = get_subsystem("F")
        point = random_point("F", 1)
        cache = EvalCache()
        SteadyStateModel(subsystem, cache=cache).evaluate(
            point, np.random.default_rng(0)
        )
        solve = cache.lookup(subsystem, point)
        cache.store(
            subsystem, point, dataclasses.replace(solve, **change(solve))
        )
        with pytest.raises(ValueError, match=message):
            cache.export_entries()


class TestDescriptorKeys:
    """The table's key is the descriptor: for the points a space emits,
    it merges exactly the points ``canonical_point`` merges."""

    @pytest.mark.parametrize("duty_cycles", [None, (0.25, 0.5, 1.0)])
    @pytest.mark.parametrize("letter", LETTERS)
    def test_descriptors_equal_exactly_when_canonical_points_do(
        self, letter, duty_cycles
    ):
        overrides = {} if duty_cycles is None else {
            "duty_cycles": duty_cycles
        }
        space = SearchSpace.for_subsystem(get_subsystem(letter), **overrides)
        rng = np.random.default_rng(7)
        points = []
        for _ in range(20):
            point = space.random(rng)
            points += [point, space.mutate(point, rng),
                       dataclasses.replace(point)]
        for a in points:
            for b in points:
                same = canonical_point(a) == canonical_point(b)
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)


def _format1_payload():
    return json.loads(FORMAT1_STORE.read_text())


def _search_lines(output: str) -> list[str]:
    """A search's printed lines, less the ones ``--cache`` adds."""
    return [
        line for line in output.splitlines()
        if line.strip()
        and not line.startswith(("cache", "lookups", "  phase"))
    ]


class TestFormat1Store:
    """Format-1 stores stay readable; the next save writes format 2."""

    def test_the_fixture_warm_starts_with_every_hit(self, tmp_path, capsys):
        store = tmp_path / "v1.json"
        shutil.copy(FORMAT1_STORE, store)
        assert main(["search", "H", "--hours", "0.3", "--seed", "2"]) == 0
        cold = capsys.readouterr().out
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--cache", str(store)]) == 0
        warm = capsys.readouterr().out
        assert "warm-started with 46 entries" in warm
        assert "100.0% hit rate" in warm
        assert _search_lines(warm) == _search_lines(cold)
        header = json.loads(store.read_text().splitlines()[0])
        assert header["format_version"] == 2
        assert header["stats"]["entries"] == 46

    def test_load_stats_reads_both_formats(self, tmp_path):
        v1 = EvalCache.load_stats(str(FORMAT1_STORE))
        assert (v1["entries"], v1["hits"], v1["misses"]) == (46, 1, 46)
        path = tmp_path / "v2.json"
        EvalCache(path=str(FORMAT1_STORE)).save(str(path))
        v2 = EvalCache.load_stats(str(path))
        assert (v2["entries"], v2["hits"], v2["misses"]) == (46, 0, 0)

    def test_stale_tags_and_unparsable_keys_drop_their_entries(
        self, tmp_path, capsys
    ):
        payload = _format1_payload()
        entries = payload["entries"]
        stale = next(key for key, entry in entries.items() if entry["fired"])
        entries[stale]["fired"][0]["tag"] = "GONE-AFTER-FIX"
        fingerprint = stale.split("|", 1)[0]
        entries[f"{fingerprint}|not|a|point"] = entries[stale]
        store = tmp_path / "v1.json"
        store.write_text(json.dumps(payload))
        assert EvalCache(path=str(store)).loaded_entries == 46
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--cache", str(store)]) == 0
        assert "lookups: 47 (46 hits, 1 misses" in capsys.readouterr().out


def _v2_store(tmp_path) -> Path:
    subsystem = get_subsystem("H")
    path = tmp_path / "cache.json"
    cache = EvalCache(path=str(path))
    model = SteadyStateModel(subsystem, cache=cache)
    for seed in range(3):
        model.evaluate(random_point("H", seed), np.random.default_rng(0))
    cache.save()
    return path


def _damage(path: Path, damage: str) -> None:
    header, *lines = path.read_text().splitlines()
    if damage == "torn-last-line":
        path.write_text("\n".join([header, *lines])[:-40])
        return
    if damage == "unknown-format-version":
        header = json.dumps({"format_version": 3, "stats": {}})
    else:
        entry = json.loads(lines[-1])
        packed = base64.b64decode(entry[5])
        entry[5] = (
            "!" + entry[5][1:] if damage == "bad-base64"
            else base64.b64encode(packed + bytes(8)).decode("ascii")
        )
        lines[-1] = json.dumps(entry)
    path.write_text("\n".join([header, *lines]) + "\n")


class TestDamagedStore:
    @pytest.mark.parametrize("damage", [
        "torn-last-line", "bad-base64", "wrong-packed-length",
        "unknown-format-version",
    ])
    def test_a_damaged_store_exits_2(self, tmp_path, capsys, damage):
        path = _v2_store(tmp_path)
        _damage(path, damage)
        with pytest.raises(SystemExit) as exc:
            main(["search", "H", "--hours", "0.2", "--cache", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load cache store {path}: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_format1_entries_that_are_not_an_object_are_rejected(
        self, tmp_path
    ):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format_version": 1, "entries": []}))
        with pytest.raises(ValueError, match="entries are not an object"):
            EvalCache(path=str(path))

    def test_messages_name_what_is_wrong(self, tmp_path):
        path = _v2_store(tmp_path)
        _damage(path, "wrong-packed-length")
        with pytest.raises(ValueError, match="line 4: packed values hold"):
            EvalCache(path=str(path))
        _damage(path, "unknown-format-version")
        with pytest.raises(ValueError, match="unsupported cache format 3"):
            EvalCache.load_stats(str(path))


class TestHandOff:
    """``fan_out`` carries store lines both ways."""

    def test_a_worker_hands_back_only_what_it_solved(self):
        subsystem = get_subsystem("H")
        parent = EvalCache(path=str(FORMAT1_STORE))
        cache = worker_cache({"cache_entries": parent.export_entries()})
        assert len(cache) == 46
        loaded = workload_from_list(json.loads(cache.export_entries()[0])[1])
        fresh = random_point("H", 12345)
        model = SteadyStateModel(subsystem, cache=cache)
        model.evaluate(loaded, np.random.default_rng(0))
        model.evaluate(fresh, np.random.default_rng(0))
        assert cache.phase_stats()["search"].hits == 1
        result = worker_result(cache)
        assert result["cache_entries"] == [cache.export_entries()[-1]]
        assert parent.import_entries(result["cache_entries"]) == 1

    def test_serial_and_pooled_hand_offs_give_the_same_entries(self):
        from tests.core.test_executor import _require_pool

        _require_pool()
        exported = []
        for workers in (1, 2):
            cache = EvalCache(path=str(FORMAT1_STORE))
            run_campaign("collie", subsystem="H", seeds=(2, 3),
                         budget_hours=0.2, workers=workers, cache=cache)
            exported.append(cache.export_entries())
        serial, pooled = exported
        assert serial == pooled
        assert len(serial) > 46


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
