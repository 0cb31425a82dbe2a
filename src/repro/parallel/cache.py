"""Content-addressed cache for multicast schedules and step tables.

The figure sweeps recompute the same deterministic artifacts over and
over: Figures 11 and 12 share every simulated point, a warm re-run of
any figure shares all of them, and the fault sweeps rebuild identical
trees per algorithm.  Every cacheable artifact here is a pure function
of its inputs, so entries are addressed by a SHA-256 key over the
canonical JSON of those inputs -- (kind, algorithm, n, source,
destination set, port model, resolution order, message size, timing
constants) -- and never invalidated: a new input is a new key, and a
stale value is impossible by construction.  Change the *semantics* of
an artifact (what a value means for the same inputs) and you must bump
:data:`CACHE_SCHEMA`, which namespaces every key.

Two layers:

- an in-process dict (always on while a cache is active);
- an optional on-disk layer under ``cache_dir`` -- one JSON file per
  entry at ``<key[:2]>/<key>.json``, written atomically (temp file +
  ``os.replace``) and created race-safely, so any number of worker
  processes can share one directory.

Every disk entry is a self-verifying envelope -- ``{"schema", "key",
"checksum", "value"}`` with a SHA-256 checksum over the canonical JSON
of the value -- and every disk read validates it.  A corrupt,
truncated, stale-schema, or mis-keyed entry is **quarantined** (moved
into ``<cache_dir>/_quarantine/``), counted in
``sim.resilience.cache_quarantined``, and treated as a miss, so the
value recomputes and the bad bytes never poison a sweep.
``repro-hypercube cache verify|gc`` audits and cleans a shared
directory offline (see docs/RESILIENCE.md).

Cached values are plain JSON scalars/containers; Python's ``json``
round-trips ``int`` and ``float`` exactly, which is what makes a warm
cache bit-identical to a cold one (the regression suite checks this).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.core.paths import ResolutionOrder
from repro.multicast.ports import PortModel
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.simulator.params import Timings

__all__ = [
    "CACHE_SCHEMA",
    "CacheAudit",
    "QUARANTINE_DIR",
    "ScheduleCache",
    "activate_cache",
    "cache_key",
    "cached_delay_stats",
    "cached_schedule_table",
    "compute_delay_stats",
    "compute_schedule_table",
    "delay_stats_key",
    "gc_cache_dir",
    "get_active_cache",
    "schedule_table_key",
    "verify_cache_dir",
]

#: Subdirectory of a cache dir holding quarantined (corrupt/stale)
#: entries until ``cache gc`` removes them.
QUARANTINE_DIR = "_quarantine"

#: Bump when the *meaning* of a cached value changes for the same key
#: inputs; old entries then become unreachable rather than wrong.
CACHE_SCHEMA = 1


def cache_key(kind: str, **fields: object) -> str:
    """SHA-256 hex key over the canonical JSON of ``fields``.

    ``fields`` must be JSON-serializable; key order does not matter
    (the encoding sorts them).
    """
    payload = {"schema": CACHE_SCHEMA, "kind": kind, **fields}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _value_checksum(value: object) -> str:
    """SHA-256 (truncated) over the canonical JSON of a cached value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _encode_entry(key: str, value: object) -> str:
    """The self-verifying on-disk envelope for one entry."""
    return json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "key": key,
            "checksum": _value_checksum(value),
            "value": value,
        },
        separators=(",", ":"),
    )


def _decode_entry(key: str, text: str) -> tuple[object, str | None]:
    """``(value, None)`` for an intact entry, else ``(None, reason)``.

    Reasons: ``"corrupt"`` (unparseable / not an envelope / checksum
    mismatch), ``"stale-schema"`` (written under another
    :data:`CACHE_SCHEMA`), ``"key-mismatch"`` (entry filed under the
    wrong name -- a tampered or mis-copied file).
    """
    try:
        payload = json.loads(text)
    except ValueError:
        return None, "corrupt"
    if not isinstance(payload, dict) or "value" not in payload or "checksum" not in payload:
        return None, "corrupt"
    if payload.get("schema") != CACHE_SCHEMA:
        return None, "stale-schema"
    if payload.get("key") != key:
        return None, "key-mismatch"
    value = payload["value"]
    if _value_checksum(value) != payload["checksum"]:
        return None, "corrupt"
    return value, None


class ScheduleCache:
    """Two-layer (memory + optional disk) content-addressed cache."""

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: registry receiving ``sim.parallel.cache_*`` metrics; swappable
        #: so workers can attribute per-chunk deltas to fresh registries.
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.puts = 0
        self.quarantined = 0
        self._memory: dict[str, object] = {}
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- metric helpers ------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"sim.parallel.{name}").inc()

    def _count_full(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- layers --------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged entry out of the addressable namespace.

        Never raises: quarantine is best-effort damage containment on
        the read path (the entry is already a miss either way).
        """
        assert self.cache_dir is not None
        self.quarantined += 1
        self._count_full("sim.resilience.cache_quarantined")
        target_dir = self.cache_dir / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{reason}-{path.name}")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def get(self, key: str) -> object | None:
        """The cached value, or ``None`` on a miss.

        (``None`` is never a cached value; every artifact here is a
        non-empty dict.)  A disk entry that fails validation -- corrupt
        bytes, a truncated write, a stale schema, a key mismatch -- is
        quarantined and reported as a miss so the value recomputes.
        """
        value = self._memory.get(key)
        if value is not None:
            self.hits += 1
            self._count("cache_hits")
            return value
        if self.cache_dir is not None:
            path = self._disk_path(key)
            with trace_spans.span("cache.disk_read", key=key[:12]) as _sp:
                try:
                    with open(path, "r", encoding="utf-8") as f:
                        text = f.read()
                except OSError:
                    text = None  # absent: plain miss
                if text is not None:
                    value, damage = _decode_entry(key, text)
                    if damage is not None:
                        self._quarantine(path, damage)
                        value = None
                if _sp is not None:
                    _sp.set(hit=value is not None)
            if value is not None:
                self._memory[key] = value
                self.hits += 1
                self.disk_hits += 1
                self._count("cache_hits")
                self._count("cache_disk_hits")
                return value
        self.misses += 1
        self._count("cache_misses")
        return None

    def put(self, key: str, value: object) -> None:
        """Store a JSON-safe value under ``key`` (memory, then disk)."""
        self._memory[key] = value
        self.puts += 1
        self._count("cache_puts")
        if self.cache_dir is None:
            return
        path = self._disk_path(key)
        with trace_spans.span("cache.disk_write", key=key[:12]):
            path.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: concurrent writers of the same key race
            # harmlessly -- both write identical bytes
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(_encode_entry(key, value))
                os.replace(tmp, path)
            except OSError:
                self._count("cache_disk_errors")
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def __len__(self) -> int:
        return len(self._memory)

    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup).

        The one canonical hit-ratio definition -- ``hits / (hits +
        misses)`` -- shared by the benchmark ledger, the service
        ``/metrics`` endpoint, and anything else reporting cache
        effectiveness, so no consumer recomputes it from raw counters.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, int | float]:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "quarantined": self.quarantined,
            "hit_ratio": self.hit_ratio(),
        }


# -- offline integrity audit ------------------------------------------


@dataclass(slots=True)
class CacheAudit:
    """Result of :func:`verify_cache_dir`."""

    ok: int = 0
    #: relative paths of entries that failed validation, by reason
    damaged: dict[str, list[str]] = field(default_factory=dict)
    #: entries moved to quarantine (only when ``repair=True``)
    repaired: int = 0
    #: files already sitting in the quarantine subdirectory
    quarantined_pending: int = 0
    #: orphaned atomic-write temp files
    stray_tmp: int = 0

    @property
    def damaged_total(self) -> int:
        return sum(len(paths) for paths in self.damaged.values())

    @property
    def clean(self) -> bool:
        return self.damaged_total == 0


def _entry_files(cache_dir: Path):
    for path in sorted(cache_dir.rglob("*.json")):
        if QUARANTINE_DIR in path.parts:
            continue
        yield path


def verify_cache_dir(cache_dir: str | os.PathLike, repair: bool = False) -> CacheAudit:
    """Validate every entry of a shared cache directory.

    Each file is decoded exactly as the read path would decode it; with
    ``repair=True`` damaged entries are moved into the quarantine
    subdirectory (the same containment the read path applies lazily).

    Raises:
        FileNotFoundError: when ``cache_dir`` does not exist.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"cache directory {root} does not exist")
    audit = CacheAudit()
    quarantine = root / QUARANTINE_DIR
    audit.quarantined_pending = sum(1 for p in quarantine.glob("*") if p.is_file())
    audit.stray_tmp = sum(1 for p in root.rglob("*.tmp") if QUARANTINE_DIR not in p.parts)
    for path in _entry_files(root):
        key = path.stem
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            damage = "unreadable"
        else:
            _, damage = _decode_entry(key, text)
        if damage is None:
            audit.ok += 1
            continue
        audit.damaged.setdefault(damage, []).append(str(path.relative_to(root)))
        if repair:
            try:
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(path, quarantine / f"{damage}-{path.name}")
                audit.repaired += 1
            except OSError:
                pass
    return audit


def gc_cache_dir(cache_dir: str | os.PathLike) -> dict[str, int]:
    """Sweep the garbage a resilient cache accumulates.

    Deletes quarantined entries, orphaned ``*.tmp`` files from
    interrupted atomic writes, and any empty key subdirectories.
    Returns removal counts.  Never touches intact entries.

    Raises:
        FileNotFoundError: when ``cache_dir`` does not exist.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"cache directory {root} does not exist")
    removed = {"quarantined": 0, "tmp": 0, "empty_dirs": 0}
    quarantine = root / QUARANTINE_DIR
    if quarantine.is_dir():
        for path in quarantine.glob("*"):
            try:
                path.unlink()
                removed["quarantined"] += 1
            except OSError:
                pass
        try:
            quarantine.rmdir()
        except OSError:
            pass
    for path in list(root.rglob("*.tmp")):
        try:
            path.unlink()
            removed["tmp"] += 1
        except OSError:
            pass
    for path in sorted((p for p in root.iterdir() if p.is_dir()), reverse=True):
        try:
            path.rmdir()
            removed["empty_dirs"] += 1
        except OSError:
            pass  # not empty
    return removed


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
# entry for the same inputs.  A sweep warms the service's cache and
# vice versa.


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
