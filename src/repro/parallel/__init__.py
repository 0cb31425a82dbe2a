"""Parallel sweep engine: worker-process fan-out and a point store.

The paper's evaluation grid -- (cube size, message length, algorithm,
trial seed) -- is embarrassingly parallel; this package executes it
that way while guaranteeing bit-identical results to the serial path:

- :mod:`repro.parallel.engine` -- :func:`sweep_context` /
  :func:`run_points`: each point computed once per sweep (and once per
  ``cache_dir``), chunked dispatch over worker processes, failed
  chunks retried under one budget and then run in-process, plus
  per-worker telemetry merging and ``sim.parallel.*`` metrics;
- :mod:`repro.parallel.fabric` -- :class:`TcpCoordinator`, the one
  transport behind the engine: local workers forked per round on
  socketpairs, remote TCP workers on other hosts, one heartbeat
  interval and one watchdog over both, dead-worker requeue, and
  degradation from a lost fleet to local workers (``sim.fabric.*``);
- :mod:`repro.parallel.worker` -- the worker side: the frame protocol,
  :func:`~repro.parallel.worker.run_chunk`, and the serve loop that
  local workers and ``repro-hypercube worker`` processes both run;
- :mod:`repro.parallel.cache` -- a content-addressed, size-bounded
  memory cache for schedule tables and simulated delay summaries (the
  planning service's repository), and the canonical JSON encoder;
- :mod:`repro.parallel.journal` -- the sweep's point store: every
  point by fingerprint, served without recomputing, and under a
  ``cache_dir`` an fsync'd JSONL log with per-record checksums, so a
  re-run resumes where a crashed one stopped;
- :mod:`repro.parallel.resilience` -- the worker watchdog and the one
  retry budget for the engine;
- :mod:`repro.parallel.seeds` -- order-independent per-point seed
  derivation.

See docs/PERFORMANCE.md for the execution model, the seed-derivation
scheme, and the cache layout, and docs/RESILIENCE.md for the point-log
format, resume semantics, and watchdog tuning.
"""

from repro.parallel.cache import ScheduleCache, cache_key
from repro.parallel.engine import SweepConfig, default_jobs, run_points, sweep_context
from repro.parallel.fabric import FabricConfig, TcpCoordinator
from repro.parallel.journal import (
    JournalLoad,
    SweepJournal,
    load_journal,
    point_fingerprint,
)
from repro.parallel.resilience import RetryPolicy, WatchdogConfig
from repro.parallel.seeds import derive_seed, spawn_seeds

__all__ = [
    "FabricConfig",
    "JournalLoad",
    "RetryPolicy",
    "ScheduleCache",
    "SweepConfig",
    "SweepJournal",
    "TcpCoordinator",
    "WatchdogConfig",
    "cache_key",
    "default_jobs",
    "derive_seed",
    "load_journal",
    "point_fingerprint",
    "run_points",
    "spawn_seeds",
    "sweep_context",
]
