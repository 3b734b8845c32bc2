"""Tests for the cache-telemetry substrate (repro.core.perfstats)."""

import json
import threading

import pytest

from repro.core.perfstats import (
    JSON_VALUE_CODEC,
    STAGE_TIMINGS_NAME,
    CacheStats,
    LruCache,
    SpillStore,
    current,
    delta,
    get_cache,
    leave_scope,
    merge_counters,
    record_stage,
    register,
    scope,
    snapshot,
    total,
)


class TestCacheStats:
    def test_counters_accumulate(self):
        stats = CacheStats("x")
        stats.record_hit()
        stats.record_hit(2)
        stats.record_miss()
        stats.record_eviction(3)
        assert stats.snapshot() == {"hits": 3, "misses": 1, "evictions": 3}

    def test_hit_rate(self):
        stats = CacheStats("x")
        assert stats.hit_rate() == 0.0
        stats.record_hit(3)
        stats.record_miss()
        assert stats.hit_rate() == pytest.approx(0.75)

    def test_reset(self):
        stats = CacheStats("x")
        stats.record_hit()
        stats.reset()
        assert stats.snapshot() == {"hits": 0, "misses": 0, "evictions": 0}


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.snapshot() == {"hits": 1, "misses": 1,
                                          "evictions": 0}

    def test_capacity_evicts_least_recent(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a's recency
        cache.put("c", 3)       # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.snapshot()["evictions"] == 1

    def test_peek_and_contains_leave_counters_alone(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert "a" in cache
        assert cache.stats.snapshot() == {"hits": 0, "misses": 0,
                                          "evictions": 0}

    def test_get_or_create_runs_factory_once_per_key(self):
        cache = LruCache(capacity=4)
        calls = []
        value = cache.get_or_create("k", lambda: calls.append(1) or 42)
        again = cache.get_or_create("k", lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_reset_clears_entries_and_counters(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.reset()
        assert len(cache) == 0
        assert cache.stats.snapshot() == {"hits": 0, "misses": 0,
                                          "evictions": 0}

    def test_thread_hammer(self):
        """8 threads interleaving put/get never corrupt the cache."""
        cache = LruCache(capacity=64)
        errors = []

        def worker(seed):
            try:
                for i in range(500):
                    key = (seed * i) % 100
                    cache.put(key, key * 2)
                    got = cache.get(key)
                    assert got is None or got == key * 2
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64


class TestRegistry:
    def test_named_cache_registers_itself(self):
        cache = LruCache(capacity=4, name="test-registry-probe")
        assert get_cache("test-registry-probe") is cache
        assert "test-registry-probe" in snapshot()

    def test_snapshot_includes_size(self):
        cache = LruCache(capacity=4, name="test-registry-size")
        cache.put("a", 1)
        assert snapshot()["test-registry-size"]["size"] == 1

    def test_reregistration_last_wins(self):
        first = LruCache(capacity=4)
        second = LruCache(capacity=4)
        register("test-registry-dup", first)
        register("test-registry-dup", second)
        assert get_cache("test-registry-dup") is second

    def test_builtin_caches_registered(self):
        # importing the substrate registers the pipeline caches
        import repro.models.encoder  # noqa: F401
        import repro.visual  # noqa: F401
        import repro.core.benchmark  # noqa: F401

        names = set(snapshot())
        assert {"render", "legibility", "perception", "dataset"} <= names


class TestSpillStore:
    def test_round_trip_and_content_addressing(self, tmp_path):
        store = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC)
        key = ("legibility", 1.5, "abc")
        assert store.get(key) is None
        store.put(key, 0.75)
        assert store.get(key) == 0.75
        # the path is a pure function of the key: a second store over
        # the same root (another process, conceptually) sees the entry
        sibling = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC)
        assert sibling.get(key) == 0.75
        assert sibling.path_for(key) == store.path_for(key)

    def test_existing_entries_are_never_rewritten(self, tmp_path):
        store = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC)
        store.put("k", 1)
        before = store.path_for("k").stat().st_mtime_ns
        store.put("k", 2)  # ignored: entries are pure functions of keys
        assert store.get("k") == 1
        assert store.path_for("k").stat().st_mtime_ns == before

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC)
        store.put("k", 5)
        store.path_for("k").write_text("{torn", encoding="utf-8")
        assert store.get("k", "fallback") == "fallback"

    def test_undecodable_entry_degrades_to_miss(self, tmp_path):
        def explode(payload):
            raise ValueError("bad payload")

        store = SpillStore(tmp_path, "probe", JSON_VALUE_CODEC[0], explode)
        store.put("k", 5)
        assert store.get("k") is None

    def test_entries_are_json(self, tmp_path):
        store = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC)
        store.put(("a", 1), {"x": 1.5})
        payload = json.loads(
            store.path_for(("a", 1)).read_text(encoding="utf-8"))
        assert payload == {"x": 1.5}

    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        stats = CacheStats("probe")
        store = SpillStore(tmp_path, "probe", *JSON_VALUE_CODEC,
                           stats=stats)
        store.put("k", 5)
        store.path_for("k").write_text("{torn", encoding="utf-8")
        assert store.get("k", "fallback") == "fallback"
        assert stats.spill_corrupt == 1
        # the bad file was evicted, so the next put rebuilds it...
        assert not store.path_for("k").exists()
        store.put("k", 5)
        assert store.get("k") == 5
        # ...and a missing entry is a plain miss, not a quarantine
        assert store.get("other") is None
        assert stats.spill_corrupt == 1


class TestSpillTier:
    def test_memory_miss_falls_through_and_promotes(self, tmp_path):
        cache = LruCache(capacity=4, spill_codec=JSON_VALUE_CODEC)
        with scope(tmp_path):
            cache.put("a", 1)          # write-through
            cache.clear()              # drop memory, keep disk
            assert cache.get("a") == 1  # served from disk, promoted
        assert cache.peek("a") == 1  # now back in memory
        assert cache.stats.snapshot() == {
            "hits": 1, "misses": 0, "evictions": 0,
            "spill_hits": 1, "spill_misses": 0}

    def test_spill_miss_counts_once(self, tmp_path):
        cache = LruCache(capacity=4, spill_codec=JSON_VALUE_CODEC)
        with scope(tmp_path) as opened:
            assert cache.get("nope") is None
        assert cache.stats.snapshot() == {
            "hits": 0, "misses": 1, "evictions": 0,
            "spill_hits": 0, "spill_misses": 1}
        assert opened.counters() == {
            "anonymous": {"misses": 1, "spill_misses": 1}}

    def test_corrupt_disk_entry_surfaces_in_snapshot(self, tmp_path):
        cache = LruCache(capacity=4, spill_codec=JSON_VALUE_CODEC)
        with scope(tmp_path) as opened:
            cache.put("a", 1)
            cache.clear()
            store = opened.spill_store(cache)
            store.path_for("a").write_text("not json", encoding="utf-8")
            assert cache.get("a") is None  # quarantined, degrades to miss
        assert cache.stats.snapshot() == {
            "hits": 0, "misses": 1, "evictions": 0,
            "spill_hits": 0, "spill_misses": 1, "spill_corrupt": 1}
        assert opened.counters()["anonymous"]["spill_corrupt"] == 1

    def test_snapshot_stays_stable_without_spill_traffic(self):
        """Spill counters must not appear for spill-free configurations
        (run manifests pin the exact counter shape)."""
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        assert set(cache.stats.snapshot()) == {"hits", "misses",
                                               "evictions"}

    def test_disk_entries_outlive_the_scope(self, tmp_path):
        cache = LruCache(capacity=4, spill_codec=JSON_VALUE_CODEC)
        with scope(tmp_path) as opened:
            cache.put("a", 1)
            store = opened.spill_store(cache)
        cache.clear()
        assert cache.get("a") is None      # memory-only lookup now
        assert store.get("a") == 1          # disk entry untouched
        with scope(tmp_path):
            assert cache.get("a") == 1      # a later scope finds it

    def test_scope_spills_only_codec_capable_caches(self, tmp_path):
        capable = LruCache(capacity=4, stats=CacheStats("probe-capable"),
                           spill_codec=JSON_VALUE_CODEC)
        incapable = LruCache(capacity=4, stats=CacheStats("probe-plain"))
        with scope(tmp_path) as opened:
            assert opened.spill_root == str(tmp_path)
            assert opened.spill_store(capable) is not None
            assert opened.spill_store(capable) is opened.spill_store(
                capable)  # one store per scope and cache
            assert opened.spill_store(incapable) is None
            capable.put("a", 1)
            incapable.put("b", 2)
        assert [path.name for path in tmp_path.iterdir()] == [
            "probe-capable"]
        with scope() as spill_free:
            assert spill_free.spill_store(capable) is None


class TestScope:
    def test_counts_into_the_scope_and_the_process_total(self):
        cache = LruCache(capacity=4, stats=CacheStats("probe-scope"))
        cache.get("a")
        with scope() as opened:
            assert current() is opened
            cache.put("a", 1)
            cache.get("a")
            record_stage("probe-stage", 5)
        assert current() is None
        assert opened.counters() == {
            "probe-scope": {"hits": 1},
            STAGE_TIMINGS_NAME: {"probe-stage_ns": 5,
                                 "probe-stage_calls": 1}}
        assert cache.stats.snapshot()["misses"] == 1  # outside any scope

    def test_closing_folds_into_the_enclosing_scope(self, tmp_path):
        cache = LruCache(capacity=4, stats=CacheStats("probe-nested"))
        with scope(tmp_path) as outer:
            with scope() as inner:
                assert inner.spill_root == str(tmp_path)  # inherited
                cache.get("a")
            with scope(isolated=True) as unit:
                cache.get("b")
            assert outer.counters() == {"probe-nested": {"misses": 1}}
        assert unit.counters() == {"probe-nested": {"misses": 1}}

    def test_snapshot_lists_every_registered_cache_with_its_size(self):
        name = "test-scope-snapshot-probe"
        cache = LruCache(capacity=4, name=name)
        cache.put("a", 1)
        with scope() as opened:
            cache.get("a")
        data = opened.snapshot()
        assert data[name] == {"hits": 1, "misses": 0, "evictions": 0,
                              "size": 1}
        assert set(snapshot()) - {STAGE_TIMINGS_NAME} <= set(data)
        assert STAGE_TIMINGS_NAME not in data  # no stage timed

    def test_a_thread_sees_the_scope_only_in_a_copied_context(self):
        import contextvars

        seen = {}
        with scope() as opened:
            ctx = contextvars.copy_context()
            plain = threading.Thread(
                target=lambda: seen.update(plain=current()))
            copied = threading.Thread(
                target=ctx.run,
                args=(lambda: seen.update(copied=current()),))
            for thread in (plain, copied):
                thread.start()
                thread.join()
        assert seen == {"plain": None, "copied": opened}

    def test_concurrent_counts_and_folds_are_not_lost(self):
        """Threads counting into one scope and folding unit tallies into
        it at once lose no update."""
        import contextvars
        import sys

        cache = LruCache(capacity=4, stats=CacheStats("probe-hammer"))
        rounds = 1000

        def work():
            for _ in range(rounds):
                cache.get("absent")
                with scope(isolated=True) as unit:
                    cache.get("absent")
                current().fold(unit.counters())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with scope() as opened:
                threads = [threading.Thread(
                    target=contextvars.copy_context().run, args=(work,))
                    for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert opened.counters() == {
            "probe-hammer": {"misses": 2 * 8 * rounds}}

    def test_leave_scope_forgets_the_inherited_scope(self):
        import contextvars

        def worker():
            leave_scope()
            return current()

        with scope():
            assert contextvars.copy_context().run(worker) is None
            assert current() is not None


class TestMergeCounters:
    def test_counters_add_and_size_takes_max(self):
        into = {"c": {"hits": 2, "size": 5}}
        merge_counters(into, {"c": {"hits": 3, "misses": 1, "size": 4},
                              "d": {"hits": 7}})
        assert into == {"c": {"hits": 5, "misses": 1, "size": 5},
                        "d": {"hits": 7}}

    def test_returns_into_for_chaining(self):
        into = {}
        assert merge_counters(into, {"c": {"hits": 1}}) is into


class TestDeltaAndTotal:
    def test_delta_subtracts_counters_keeps_size(self):
        before = {"c": {"hits": 2, "misses": 1, "evictions": 0, "size": 3}}
        after = {"c": {"hits": 5, "misses": 1, "evictions": 2, "size": 4}}
        moved = delta(before, after)
        assert moved == {"c": {"hits": 3, "misses": 0, "evictions": 2,
                               "size": 4}}

    def test_delta_handles_new_cache(self):
        moved = delta({}, {"c": {"hits": 2, "misses": 0, "evictions": 0,
                                 "size": 1}})
        assert moved["c"]["hits"] == 2

    def test_total_sums_one_field(self):
        counters = {"a": {"hits": 2}, "b": {"hits": 3}}
        assert total(counters, "hits") == 5
        assert total(counters, "misses") == 0
