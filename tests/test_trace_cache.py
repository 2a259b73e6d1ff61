"""Trace cache: hits on identical inputs, invalidation on any change."""

from __future__ import annotations

from repro.machine.config import sgi_base
from repro.sim.engine import EngineOptions, run_benchmark
from repro.sim.trace_cache import TraceCache, default_trace_cache, trace_key
from repro.sim.tracegen import SimProfile

FAST = EngineOptions(profile=SimProfile.fast())
CONFIG = sgi_base(2).scaled(16)


class TestTraceCacheUnit:
    def test_miss_generates_then_hits(self):
        cache = TraceCache()
        calls = []
        key = ("schedule", "layout", "config", "profile", None, 1.0)
        first = cache.get_or_generate(key, lambda: calls.append(1) or ["trace"])
        second = cache.get_or_generate(key, lambda: calls.append(1) or ["other"])
        assert first is second
        assert calls == [1]
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
            "columnar_indexes": 0,
        }

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        for name in ("a", "b", "c"):
            cache.get_or_generate((name,), lambda name=name: [name])
        assert cache.evictions == 1
        assert ("a",) not in cache  # least recently used
        assert ("b",) in cache and ("c",) in cache

    def test_clear_drops_entries_and_keeps_counters(self):
        cache = TraceCache()
        cache.get_or_generate(("k",), lambda: ["t"])
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        cache.reset_counters()
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            "columnar_indexes": 0,
        }

    def test_key_varies_with_every_fingerprint_component(self):
        base = trace_key("sched", "layout", "config", "profile", None, 1.0)
        assert base != trace_key("sched2", "layout", "config", "profile", None, 1.0)
        assert base != trace_key("sched", "layout2", "config", "profile", None, 1.0)
        assert base != trace_key("sched", "layout", "config", "fast", None, 1.0)
        assert base != trace_key("sched", "layout", "config", "profile", ("pf",), 1.0)
        # Occurrence-dependent fraction scale invalidates too.
        assert base != trace_key("sched", "layout", "config", "profile", None, 0.5)


class TestTraceCacheEngine:
    def _fresh(self):
        cache = default_trace_cache()
        cache.clear()
        cache.reset_counters()
        return cache

    def test_repeat_run_hits_without_new_misses(self):
        cache = self._fresh()
        run_benchmark("fpppp", CONFIG, FAST)
        misses = cache.misses
        assert misses > 0
        run_benchmark("fpppp", CONFIG, FAST)
        assert cache.misses == misses  # every trace reused
        assert cache.hits > 0

    def test_layout_change_invalidates(self):
        cache = self._fresh()
        run_benchmark("fpppp", CONFIG, FAST)
        misses = cache.misses
        # An unaligned layout has different array bases: new keys, no reuse.
        run_benchmark("fpppp", CONFIG, FAST, aligned=False)
        assert cache.misses > misses

    def test_profile_change_invalidates(self):
        cache = self._fresh()
        run_benchmark("fpppp", CONFIG, FAST)
        misses = cache.misses
        run_benchmark("fpppp", CONFIG, FAST, profile=SimProfile())
        assert cache.misses > misses

    def test_census_counts_columnar_indexes(self):
        cache = self._fresh()
        run_benchmark("fpppp", CONFIG, FAST)
        # The columnar kernel memoizes a block index on every stream it
        # runs; the index rides on the cached traces and shows up in the
        # census.
        assert cache.stats()["columnar_indexes"] > 0

    def test_disabled_cache_is_untouched(self):
        cache = self._fresh()
        run_benchmark("fpppp", CONFIG, FAST, trace_cache=False)
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            "columnar_indexes": 0,
        }


class TestTraceCacheConcurrency:
    """The service's batcher shares the process-wide cache across worker
    threads; the lock must keep the LRU list and counters consistent."""

    def test_concurrent_mixed_keys_account_every_access(self):
        import threading

        cache = TraceCache(max_entries=8)
        threads_n, per_thread, keyspace = 8, 300, 24
        generated = []
        generated_lock = threading.Lock()

        def worker(seed):
            rng = __import__("random").Random(seed)
            for _ in range(per_thread):
                key = ("k", rng.randrange(keyspace))
                value = cache.get_or_generate(key, lambda k=key: [k])
                assert value[0] == key  # never a wrong answer
                with generated_lock:
                    generated.append(key)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        total = threads_n * per_thread
        # Every access is either a hit or a miss — none lost to a race.
        assert stats["hits"] + stats["misses"] == total
        # Eviction kept the entry count bounded despite the churn.
        assert stats["entries"] <= 8
        assert stats["misses"] >= stats["evictions"] + stats["entries"]

    def test_concurrent_same_key_shares_one_object(self):
        import threading

        cache = TraceCache(max_entries=4)
        barrier = threading.Barrier(6)
        results = []
        results_lock = threading.Lock()
        generations = []

        def generate():
            with results_lock:
                generations.append(1)
            return [object()]

        def worker():
            barrier.wait()
            value = cache.get_or_generate(("hot",), generate)
            with results_lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All callers converged on one shared trace list, even if several
        # threads generated concurrently (first insertion wins).
        assert len({id(value) for value in results}) == 1
        assert cache.hits + cache.misses == 6
        assert cache.misses == len(generations)

    def test_eviction_under_concurrent_insert_never_overflows(self):
        import threading

        cache = TraceCache(max_entries=2)

        def worker(base):
            for i in range(200):
                cache.get_or_generate((base, i), lambda: [None])

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 2
        assert cache.evictions == cache.misses - len(cache)
