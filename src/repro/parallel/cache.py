"""Content-addressed memo for multicast schedules and step tables.

Every cacheable artifact here is a pure function of its inputs, so
entries are addressed by a SHA-256 key over the canonical JSON of those
inputs -- (kind, algorithm, n, source, destination set, port model,
resolution order, message size, timing constants) -- and never
invalidated: a new input is a new key, and a stale value is impossible
by construction.  Change the *semantics* of an artifact (what a value
means for the same inputs) and you must bump :data:`CACHE_SCHEMA`,
which namespaces every key, and every sweep point fingerprint too
(:func:`repro.parallel.journal.point_fingerprint`).

A :class:`ScheduleCache` lives in memory only.  It is the planning
service's repository, and in a sweep each process's memo for the
destination sets a point draws more than once (small sets recur, and
at m = 2**n - 1 every set is the broadcast set).  Whole sweep points
are reused across figures and across runs one level up, by the
engine's point store (:mod:`repro.parallel.journal`).  Every value is
stored once, as its canonical JSON bytes (:func:`canonical_json`), in
a map bounded by :data:`MEMORY_BUDGET_BYTES` with least-recently-used
eviction -- an evicted value costs only a rebuild of the same bytes.

Cached values are plain JSON scalars/containers; Python's ``json``
round-trips ``int`` and ``float`` exactly, which is what makes a warm
cache bit-identical to a cold one (the regression suite checks this).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Iterable

from repro.core.paths import ResolutionOrder
from repro.multicast.ports import PortModel
from repro.obs.metrics import MetricsRegistry
from repro.simulator.params import Timings

__all__ = [
    "CACHE_SCHEMA",
    "MEMORY_BUDGET_BYTES",
    "ScheduleCache",
    "activate_cache",
    "cache_key",
    "cached_delay_stats",
    "cached_schedule_table",
    "canonical_json",
    "compute_delay_stats",
    "compute_schedule_table",
    "delay_stats_key",
    "get_active_cache",
    "schedule_table_key",
]

#: Bump when the *meaning* of a cached value changes for the same key
#: inputs; old entries then become unreachable rather than wrong.
CACHE_SCHEMA = 1

#: Resident bytes (stored values plus their keys) the memory layer may
#: hold before it evicts the least recently used entries: about 13,000
#: n=10, m=512 schedule tables.
MEMORY_BUDGET_BYTES = 64 << 20


def canonical_json(value: object) -> bytes:
    """The one canonical JSON encoding (sorted keys, compact) of cache
    keys, stored values and service response bodies."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def cache_key(kind: str, **fields: object) -> str:
    """SHA-256 hex key over the canonical JSON of ``fields``.

    ``fields`` must be JSON-serializable; key order does not matter
    (the encoding sorts them).
    """
    payload = {"schema": CACHE_SCHEMA, "kind": kind, **fields}
    return hashlib.sha256(canonical_json(payload)).hexdigest()


class ScheduleCache:
    """In-memory content-addressed cache of canonical JSON bytes.

    It keeps at most :data:`MEMORY_BUDGET_BYTES` of them, evicting the
    least recently used first.
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        #: registry receiving ``sim.parallel.cache_*`` metrics; swappable
        #: so workers can attribute per-chunk deltas to fresh registries.
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        #: stored bytes by key, least recently used first
        self._memory: OrderedDict[str, bytes] = OrderedDict()
        #: bytes of the stored values plus their keys
        self.resident_bytes = 0

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"sim.parallel.{name}").inc()

    def _remember(self, key: str, raw: bytes) -> None:
        """Store ``raw`` as the most recent entry, then evict to budget."""
        memory = self._memory
        old = memory.pop(key, None)
        if old is not None:
            self.resident_bytes -= len(key) + len(old)
        memory[key] = raw
        self.resident_bytes += len(key) + len(raw)
        while self.resident_bytes > MEMORY_BUDGET_BYTES:
            evicted, value = memory.popitem(last=False)
            self.resident_bytes -= len(evicted) + len(value)
            self.evictions += 1
            self._count("cache_evictions")

    def get(self, key: str) -> object | None:
        """The cached value, freshly decoded, or ``None`` on a miss.

        (``None`` is never a cached value; every artifact here is a
        non-empty dict.)  Each call returns a new object, so mutating it
        leaves the cache unchanged.
        """
        raw = self.get_raw(key)
        return None if raw is None else json.loads(raw)

    def get_raw(self, key: str) -> bytes | None:
        """The cached value's canonical JSON bytes, or ``None`` on a miss.

        A hit makes the entry the most recently used.
        """
        raw = self._memory.get(key)
        if raw is None:
            self.misses += 1
            self._count("cache_misses")
            return None
        self._memory.move_to_end(key)
        self.hits += 1
        self._count("cache_hits")
        return raw

    def put(self, key: str, value: object) -> bytes:
        """Store a JSON-safe value under ``key`` and return its stored
        canonical bytes."""
        raw = canonical_json(value)
        self._remember(key, raw)
        self.puts += 1
        self._count("cache_puts")
        return raw

    def __len__(self) -> int:
        return len(self._memory)

    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup).

        The one canonical hit-ratio definition -- ``hits / (hits +
        misses)`` -- shared by the service's ``/health`` and
        ``/metrics`` endpoints and anything else reporting cache
        effectiveness, so no consumer recomputes it from raw counters.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, int | float]:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "bytes": self.resident_bytes,
            "hit_ratio": self.hit_ratio(),
        }


# -- the active cache -------------------------------------------------
#
# Process-global, installed by the sweep engine (parent: for the
# context's duration; workers: when they start).  With no active
# cache the helpers below compute directly, so un-sweep callers see
# exactly the pre-cache behavior.

_active: ScheduleCache | None = None


def activate_cache(cache: ScheduleCache | None) -> ScheduleCache | None:
    """Install (or with ``None`` clear) the process-wide cache; returns
    the previous one so callers can restore it."""
    global _active
    previous = _active
    _active = cache
    return previous


def get_active_cache() -> ScheduleCache | None:
    return _active


# -- cached artifacts --------------------------------------------------
#
# Keys and value computations are separate functions so every consumer
# -- the cached_* helpers below, and the schedule-planning service's
# single-flight planner (repro.service.planner) -- addresses the same
# entry for the same inputs.


def _dest_key(destinations: Iterable[int]) -> list[int]:
    return sorted(int(d) for d in destinations)


def schedule_table_key(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> str:
    """The content address of one schedule table (see :func:`cache_key`)."""
    return cache_key(
        "schedule",
        algorithm=algorithm,
        n=n,
        source=source,
        dests=_dest_key(destinations),
        ports=[ports.ports, ports.name],
        order=order.name,
    )


def compute_schedule_table(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> dict:
    """Build the schedule table value (cache-oblivious, JSON-safe)."""
    from repro.multicast.registry import get_algorithm

    dests = _dest_key(destinations)
    sched = get_algorithm(algorithm).schedule(n, source, dests, ports, order)
    return {
        "max_step": sched.max_step,
        "dest_steps": {str(dst): step for dst, step in sorted(sched.dest_steps.items())},
    }


def cached_schedule_table(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> dict:
    """Step table for one multicast: ``{"max_step", "dest_steps"}``.

    ``dest_steps`` maps destination address (as a string, for JSON) to
    the step in which it receives the message.  Computed via the
    registry algorithm on a miss; served from the active cache on a
    hit.
    """
    key = schedule_table_key(algorithm, n, source, destinations, ports, order)
    cache = get_active_cache()
    if cache is not None:
        value = cache.get(key)
        if value is not None:
            return value  # type: ignore[return-value]
    value = compute_schedule_table(algorithm, n, source, destinations, ports, order)
    if cache is not None:
        cache.put(key, value)
    return value


def delay_stats_key(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    size: int,
    timings: Timings,
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> str:
    """The content address of one delay summary (see :func:`cache_key`)."""
    return cache_key(
        "delay",
        algorithm=algorithm,
        n=n,
        source=source,
        dests=_dest_key(destinations),
        size=size,
        timings={
            "t_setup": timings.t_setup,
            "t_recv": timings.t_recv,
            "t_byte": timings.t_byte,
            "t_hop": timings.t_hop,
        },
        ports=[ports.ports, ports.name],
        order=order.name,
    )


def compute_delay_stats(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    size: int,
    timings: Timings,
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> dict:
    """Run the wormhole simulation and summarize (cache-oblivious)."""
    from repro.multicast.registry import get_algorithm
    from repro.simulator.run import simulate_multicast

    dests = _dest_key(destinations)
    tree = get_algorithm(algorithm).build_tree(n, source, dests, order)
    res = simulate_multicast(tree, size=size, timings=timings, ports=ports, label=algorithm)
    return {
        "avg_delay_us": res.avg_delay,
        "max_delay_us": res.max_delay,
        "total_blocked_us": res.total_blocked_time,
    }


def cached_delay_stats(
    algorithm: str,
    n: int,
    source: int,
    destinations: Iterable[int],
    size: int,
    timings: Timings,
    ports: PortModel,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> dict:
    """Simulated delay summary for one multicast:
    ``{"avg_delay_us", "max_delay_us", "total_blocked_us"}``.

    The full wormhole simulation runs on a miss; the summary triple is
    what every delay experiment consumes, so that is what is cached.
    """
    key = delay_stats_key(algorithm, n, source, destinations, size, timings, ports, order)
    cache = get_active_cache()
    if cache is not None:
        value = cache.get(key)
        if value is not None:
            return value  # type: ignore[return-value]
    value = compute_delay_stats(algorithm, n, source, destinations, size, timings, ports, order)
    if cache is not None:
        cache.put(key, value)
    return value
