"""The content-addressed schedule/delay cache: memory layer, keys, artifacts."""

from __future__ import annotations

import pytest

from repro.multicast.ports import ALL_PORT, ONE_PORT
from repro.multicast.registry import get_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.parallel import cache as cache_module
from repro.parallel.cache import (
    ScheduleCache,
    activate_cache,
    cache_key,
    cached_delay_stats,
    cached_schedule_table,
    canonical_json,
)
from repro.simulator.params import NCUBE2
from repro.simulator.run import simulate_multicast

FIG8 = (4, 0, [1, 3, 5, 7, 11, 12, 14, 15])


@pytest.fixture
def active_cache():
    """A cache installed as the process-wide active cache."""
    cache = ScheduleCache(metrics=MetricsRegistry())
    previous = activate_cache(cache)
    try:
        yield cache
    finally:
        activate_cache(previous)


class TestCacheKey:
    def test_field_order_irrelevant(self):
        assert cache_key("k", a=1, b=2) == cache_key("k", b=2, a=1)

    def test_kind_and_fields_distinguish(self):
        assert cache_key("schedule", n=4) != cache_key("delay", n=4)
        assert cache_key("schedule", n=4) != cache_key("schedule", n=5)


class TestLayers:
    def test_memory_roundtrip_and_stats(self):
        cache = ScheduleCache()
        key = cache_key("t", x=1)
        assert cache.get(key) is None
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "puts": 1,
            "evictions": 0, "bytes": len(key) + len(b'{"v":2}'),
            "hit_ratio": 0.5,
        }

    def test_hit_ratio(self):
        cache = ScheduleCache()
        assert cache.hit_ratio() == 0.0  # no lookups yet
        key = cache_key("t", x=1)
        cache.get(key)  # miss
        cache.put(key, {"v": 1})
        cache.get(key)
        cache.get(key)  # two hits
        assert cache.hit_ratio() == pytest.approx(2 / 3)
        assert cache.stats()["hit_ratio"] == pytest.approx(2 / 3)

    def test_values_survive_json_exactly(self):
        value = {"f": 8030.400000000001, "i": 1 << 40}
        cache = ScheduleCache()
        key = cache_key("t", x=2)
        cache.put(key, value)
        assert cache.get(key) == value

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        cache = ScheduleCache(metrics=registry)
        key = cache_key("t", x=3)
        cache.get(key)
        cache.put(key, {"v": 1})
        cache.get(key)
        snap = registry.snapshot()
        assert snap["sim.parallel.cache_misses"]["value"] == 1
        assert snap["sim.parallel.cache_puts"]["value"] == 1
        assert snap["sim.parallel.cache_hits"]["value"] == 1


class TestStoredBytes:
    def test_mutating_a_value_leaves_the_cache_unchanged(self):
        cache = ScheduleCache()
        key = cache_key("t", x=1)
        value = {"max_step": 2, "dest_steps": {"1": 1}}
        cache.put(key, value)
        value["max_step"] = 99  # the caller's own object
        cache.get(key)["dest_steps"]["1"] = 7  # a returned object
        assert cache.get(key) == {"max_step": 2, "dest_steps": {"1": 1}}

    def test_put_returns_the_canonical_bytes_get_raw_serves(self):
        cache = ScheduleCache()
        key = cache_key("t", x=1)
        raw = cache.put(key, {"b": [1, 2.5], "a": None})
        assert raw == b'{"a":null,"b":[1,2.5]}' == canonical_json({"b": [1, 2.5], "a": None})
        assert cache.get_raw(key) is raw


class TestMemoryBudget:
    """The memory layer keeps stored bytes under MEMORY_BUDGET_BYTES,
    evicting the least recently used entry first."""

    @staticmethod
    def _entry(x: int) -> tuple[str, dict]:
        return cache_key("t", x=x), {"v": [x] * 8}

    def _entry_bytes(self) -> int:
        key, value = self._entry(0)
        return len(key) + len(canonical_json(value))  # the same for x < 10

    def test_least_recently_used_goes_first(self, monkeypatch):
        size = self._entry_bytes()
        monkeypatch.setattr(cache_module, "MEMORY_BUDGET_BYTES", 3 * size)
        registry = MetricsRegistry()
        cache = ScheduleCache(metrics=registry)
        for x in range(3):
            cache.put(*self._entry(x))
        assert cache.evictions == 0
        assert cache.get(cache_key("t", x=0)) == {"v": [0] * 8}  # refreshes entry 0
        cache.put(*self._entry(3))
        assert cache.get(cache_key("t", x=1)) is None  # the least recently used
        for x in (0, 2, 3):
            assert cache.get(cache_key("t", x=x)) == {"v": [x] * 8}
        for x in range(4, 10):
            cache.put(*self._entry(x))
            assert cache.resident_bytes <= 3 * size
        assert len(cache) == 3
        assert cache.resident_bytes == 3 * size
        assert cache.evictions == 7
        assert registry.counter("sim.parallel.cache_evictions").value == 7
        assert cache.stats()["evictions"] == 7
        assert cache.stats()["bytes"] == 3 * size


class TestCachedArtifacts:
    def test_schedule_table_matches_direct_computation(self, active_cache):
        n, source, dests = FIG8
        for ports in (ALL_PORT, ONE_PORT):
            for name in ("ucube", "wsort"):
                sched = get_algorithm(name).schedule(n, source, dests, ports)
                table = cached_schedule_table(name, n, source, dests, ports)
                assert table["max_step"] == sched.max_step
                assert table["dest_steps"] == {
                    str(d): s for d, s in sched.dest_steps.items()
                }

    def test_schedule_table_hit_on_second_call(self, active_cache):
        n, source, dests = FIG8
        cached_schedule_table("wsort", n, source, dests, ALL_PORT)
        misses = active_cache.misses
        again = cached_schedule_table("wsort", n, source, dests, ALL_PORT)
        assert active_cache.misses == misses  # no recompute
        assert again["max_step"] == 2  # Fig. 8(c)

    def test_destination_order_is_canonicalized(self, active_cache):
        n, source, dests = FIG8
        cached_schedule_table("wsort", n, source, dests, ALL_PORT)
        hits = active_cache.hits
        cached_schedule_table("wsort", n, source, list(reversed(dests)), ALL_PORT)
        assert active_cache.hits == hits + 1

    def test_delay_stats_match_simulator(self, active_cache):
        n, source, dests = FIG8
        tree = get_algorithm("wsort").build_tree(n, source, dests)
        res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        stats = cached_delay_stats("wsort", n, source, dests, 4096, NCUBE2, ALL_PORT)
        assert stats["avg_delay_us"] == res.avg_delay
        assert stats["max_delay_us"] == res.max_delay
        assert stats["total_blocked_us"] == res.total_blocked_time
        # warm call is served from memory
        misses = active_cache.misses
        assert cached_delay_stats("wsort", n, source, dests, 4096, NCUBE2, ALL_PORT) == stats
        assert active_cache.misses == misses

    def test_no_active_cache_computes_directly(self):
        n, source, dests = FIG8
        table = cached_schedule_table("wsort", n, source, dests, ALL_PORT)
        assert table["max_step"] == 2
