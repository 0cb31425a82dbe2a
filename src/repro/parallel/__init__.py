"""Parallel sweep engine: worker-process fan-out with schedule caching.

The paper's evaluation grid -- (cube size, message length, algorithm,
trial seed) -- is embarrassingly parallel; this package executes it
that way while guaranteeing bit-identical results to the serial path:

- :mod:`repro.parallel.engine` -- :func:`sweep_context` /
  :func:`run_points`: each point computed once per sweep (and once per
  ``cache_dir``), chunked dispatch over worker processes with
  retry, quarantine, and in-process fallback on worker failure, plus
  per-worker telemetry and metrics merging (``sim.parallel.*``);
- :mod:`repro.parallel.fabric` -- :class:`TcpCoordinator`, the one
  transport behind the engine: local workers forked per round on
  socketpairs, remote TCP workers on other hosts, one heartbeat
  watchdog over both, dead-worker requeue, and degradation from a lost
  fleet to local workers (``sim.fabric.*``);
- :mod:`repro.parallel.worker` -- the worker side: the frame protocol,
  :func:`~repro.parallel.worker.run_chunk`, and the serve loop that
  local workers and ``repro-hypercube worker`` processes both run;
- :mod:`repro.parallel.cache` -- a content-addressed, size-bounded
  memory cache for multicast schedules, step tables, and simulated
  delay summaries: the service's repository and each process's memo;
- :mod:`repro.parallel.journal` -- the sweep's point store: every
  point by fingerprint, served without recomputing, and under a
  ``cache_dir`` an fsync'd JSONL log with per-record checksums, so a
  re-run resumes where a crashed one stopped;
- :mod:`repro.parallel.resilience` -- worker watchdogs, retry budgets,
  and poison-point quarantine for the engine;
- :mod:`repro.parallel.seeds` -- order-independent per-point seed
  derivation.

See docs/PERFORMANCE.md for the execution model, the seed-derivation
scheme, and the cache layout, and docs/RESILIENCE.md for the point-log
format, resume semantics, and watchdog tuning.
"""

from repro.parallel.cache import (
    ScheduleCache,
    cache_key,
    cached_delay_stats,
    cached_schedule_table,
    get_active_cache,
)
from repro.parallel.engine import (
    SweepConfig,
    default_jobs,
    get_sweep_metrics,
    run_points,
    sweep_context,
)
from repro.parallel.fabric import FabricConfig, TcpCoordinator
from repro.parallel.journal import (
    JournalLoad,
    SweepJournal,
    load_journal,
    point_fingerprint,
)
from repro.parallel.resilience import PointTracker, RetryPolicy, WatchdogConfig
from repro.parallel.seeds import derive_seed, spawn_seeds

__all__ = [
    "FabricConfig",
    "JournalLoad",
    "PointTracker",
    "RetryPolicy",
    "ScheduleCache",
    "SweepConfig",
    "SweepJournal",
    "TcpCoordinator",
    "WatchdogConfig",
    "cache_key",
    "cached_delay_stats",
    "cached_schedule_table",
    "default_jobs",
    "derive_seed",
    "get_active_cache",
    "get_sweep_metrics",
    "load_journal",
    "point_fingerprint",
    "run_points",
    "spawn_seeds",
    "sweep_context",
]
