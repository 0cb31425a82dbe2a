"""Parallel sweep engine: process-pool fan-out with schedule caching.

The paper's evaluation grid -- (cube size, message length, algorithm,
trial seed) -- is embarrassingly parallel; this package executes it
that way while guaranteeing bit-identical results to the serial path:

- :mod:`repro.parallel.engine` -- :func:`sweep_context` /
  :func:`run_points`: chunked dispatch over a worker fabric with
  in-process fallback on worker failure, plus per-worker telemetry and
  metrics merging (``sim.parallel.*``);
- :mod:`repro.parallel.fabric` -- the :class:`Communicator` transports
  behind the engine: the single-host process pool
  (:class:`LocalCommunicator`) and the multi-host TCP coordinator
  (:class:`TcpCoordinator`) with per-host heartbeats, dead-host
  requeue, and degradation back to the local pool (``sim.fabric.*``);
- :mod:`repro.parallel.worker` -- the ``repro-hypercube worker``
  process that serves a coordinator link on any host;
- :mod:`repro.parallel.fabric_cache` -- the fleet-shared schedule-cache
  tier workers mount over the planning service's ``/v1/cache`` routes;
- :mod:`repro.parallel.cache` -- a content-addressed two-layer cache
  for multicast schedules, step tables, and simulated delay summaries,
  shared across workers through an optional ``cache_dir``, with
  checksum-validated disk reads and quarantine of damaged entries;
- :mod:`repro.parallel.journal` -- crash-safe sweep checkpointing
  (fsync'd JSONL with per-record checksums) behind ``--resume``;
- :mod:`repro.parallel.resilience` -- worker watchdogs, retry budgets,
  and poison-point quarantine for the engine;
- :mod:`repro.parallel.seeds` -- order-independent per-point seed
  derivation.

See docs/PERFORMANCE.md for the execution model, the seed-derivation
scheme, and the cache layout, and docs/RESILIENCE.md for the journal
format, resume semantics, and watchdog tuning.
"""

from repro.parallel.cache import (
    CacheAudit,
    ScheduleCache,
    cache_key,
    cached_delay_stats,
    cached_schedule_table,
    gc_cache_dir,
    get_active_cache,
    verify_cache_dir,
)
from repro.parallel.engine import (
    SweepConfig,
    default_jobs,
    get_sweep_journal,
    get_sweep_metrics,
    run_points,
    sweep_context,
)
from repro.parallel.fabric import (
    Communicator,
    FabricConfig,
    LocalCommunicator,
    TcpCoordinator,
)
from repro.parallel.fabric_cache import RemoteCacheClient, TieredCache
from repro.parallel.journal import (
    JournalLoad,
    SweepJournal,
    derive_run_id,
    load_journal,
    point_fingerprint,
)
from repro.parallel.resilience import PointTracker, RetryPolicy, WatchdogConfig
from repro.parallel.seeds import derive_seed, spawn_seeds

__all__ = [
    "CacheAudit",
    "Communicator",
    "FabricConfig",
    "JournalLoad",
    "LocalCommunicator",
    "PointTracker",
    "RemoteCacheClient",
    "RetryPolicy",
    "ScheduleCache",
    "SweepConfig",
    "SweepJournal",
    "TcpCoordinator",
    "TieredCache",
    "WatchdogConfig",
    "cache_key",
    "cached_delay_stats",
    "cached_schedule_table",
    "default_jobs",
    "derive_run_id",
    "derive_seed",
    "gc_cache_dir",
    "get_active_cache",
    "get_sweep_journal",
    "get_sweep_metrics",
    "load_journal",
    "point_fingerprint",
    "run_points",
    "spawn_seeds",
    "sweep_context",
    "verify_cache_dir",
]
