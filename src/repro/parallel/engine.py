"""Sweep engine: fan experiment points across worker processes.

The paper's evaluation is a grid of independent simulation points --
(cube size, message length, algorithm, trial seed) -- so the sweep
engine is deliberately simple: a point function (any picklable
module-level callable), a list of point specs (picklable, primitives
only), and :func:`run_points`, which executes them serially or across
the active :func:`sweep_context`'s workers.  Every parallel round goes
through one :class:`~repro.parallel.fabric.TcpCoordinator`: it forks
local workers for the round (``jobs=N``), or, with a ``fabric=``
argument, fans the same chunks over multi-host TCP workers and falls
back to local workers when the last of them is gone.

Guarantees:

- **Bit-identity with the serial path.**  The same point function runs
  either way; results are reassembled in submission order; per-point
  seeds are part of the spec, never derived from scheduling.  The
  regression suite asserts byte-identical figure tables for
  ``jobs=4`` vs serial, cache cold and warm -- and, with a journal,
  for resumed vs uninterrupted runs, and for distributed vs serial.
- **Graceful degradation.**  A failed worker (crash, hang, dead host)
  only costs its chunk, and a deterministic point *error* still
  surfaces exactly as it would serially.  The
  :class:`~repro.parallel.resilience.WatchdogConfig` (default:
  :meth:`~repro.parallel.resilience.WatchdogConfig.from_env`) requeues
  crashed and *hung* chunks under a capped, exponentially backed-off
  retry budget; points that keep failing are quarantined to in-process
  execution; and rounds that keep losing workers degrade the remainder
  to in-process.  A chunk that does not pickle runs in-process at once.
- **Crash recovery.**  With a :class:`~repro.parallel.journal.SweepJournal`
  active, every completed point is durably checkpointed as it is
  absorbed, and points already journaled by a previous (crashed or
  killed) run of the same sweep are served from the journal without
  recomputation -- including points originally computed on a host that
  no longer exists, because fingerprints are content-addressed.
- **Observability.**  Workers buffer their telemetry
  (:class:`~repro.obs.sink.MemorySink`) and metric deltas per chunk and
  the parent merges both -- records into the parent's active sink,
  deltas into the context's registry -- so ``--telemetry`` output and
  ``sim.parallel.*`` metrics look the same no matter where points ran.
  Watchdog and journal activity is reported under ``sim.resilience.*``
  and as ``kind="resilience-event"`` telemetry; fleet-level decisions
  under ``sim.fabric.*`` and ``kind="fabric-event"``.

Points are dispatched in chunks (default: ~4 chunks per worker) to
amortize inter-process overhead on sub-millisecond points.  Workers
heartbeat over their link while they make progress, which is what lets
the coordinator distinguish a slow chunk from a hung one.
"""

from __future__ import annotations

import os
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter
from typing import Callable, Iterator, Sequence, TypeVar

from repro.obs import sink as _sink_mod
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry, merge_snapshot
from repro.obs.sink import emit_event
from repro.obs.telemetry import RunRecord
from repro.parallel.cache import ScheduleCache, activate_cache
from repro.parallel.fabric import FabricConfig, TcpCoordinator
from repro.parallel.journal import SweepJournal, point_fingerprint
from repro.parallel.resilience import PointTracker, WatchdogConfig, _env_number

__all__ = [
    "SweepConfig",
    "default_jobs",
    "get_sweep_journal",
    "get_sweep_metrics",
    "run_points",
    "sweep_context",
]

S = TypeVar("S")
R = TypeVar("R")


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Active sweep parameters (one per :func:`sweep_context`).

    ``communicator`` is the coordinator the engine dispatches rounds
    to; ``None`` means the sweep runs serially.
    """

    jobs: int
    cache_dir: str | None = None
    chunk_size: int | None = None
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    communicator: TcpCoordinator | None = None


def default_jobs() -> int:
    """Worker count when unspecified: ``REPRO_JOBS`` or the CPU count
    (a bad ``REPRO_JOBS`` raises a ValueError that names it)."""
    return max(1, _env_number("REPRO_JOBS", int, os.cpu_count() or 1))


_config: SweepConfig | None = None
_metrics: MetricsRegistry | None = None
_journal: SweepJournal | None = None


def get_sweep_metrics() -> MetricsRegistry | None:
    """The active context's ``sim.parallel.*`` registry, if any."""
    return _metrics


def get_sweep_journal() -> SweepJournal | None:
    """The active context's checkpoint journal, if any."""
    return _journal


@contextmanager
def sweep_context(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    chunk_size: int | None = None,
    metrics: MetricsRegistry | None = None,
    watchdog: WatchdogConfig | None = None,
    journal: SweepJournal | None = None,
    fabric: FabricConfig | TcpCoordinator | None = None,
) -> Iterator[MetricsRegistry]:
    """Activate the sweep engine for the dynamic extent of the block.

    Args:
        jobs: worker processes (``None``/``0`` -> :func:`default_jobs`;
            ``1`` -> serial execution, still with schedule caching).
        cache_dir: optional shared on-disk cache directory (see
            :mod:`repro.parallel.cache`); with ``None`` the cache is
            in-memory only (per process).
        chunk_size: points per dispatched chunk (default: ~4 chunks per
            worker).
        metrics: registry to record engine/cache metrics into (default:
            a fresh one, yielded for inspection).
        watchdog: hung-worker detection and retry policy (see
            :mod:`repro.parallel.resilience`); ``None`` ->
            :meth:`WatchdogConfig.from_env` defaults.  It guards every
            parallel sweep.
        journal: checkpoint journal for crash-safe resume (see
            :mod:`repro.parallel.journal`); the caller owns its
            lifecycle (open/close).
        fabric: distribute chunks over TCP workers instead of local
            ones -- either a :class:`~repro.parallel.fabric.FabricConfig`
            (the context builds the coordinator) or a pre-built
            :class:`~repro.parallel.fabric.TcpCoordinator`; either way
            the context starts and stops it and blocks up to
            ``wait_s`` for ``min_workers`` to join.  If the fabric
            loses its last worker, the sweep continues on local
            workers attached to the same coordinator.

    Contexts nest: the innermost wins, the outer is restored on exit.
    """
    global _config, _metrics, _journal
    resolved_jobs = default_jobs() if not jobs else max(1, int(jobs))
    prev_config, prev_metrics, prev_journal = _config, _metrics, _journal
    registry = metrics if metrics is not None else MetricsRegistry()
    if watchdog is None:
        watchdog = WatchdogConfig.from_env()
    communicator: TcpCoordinator | None = None
    if isinstance(fabric, TcpCoordinator):
        communicator = fabric
        # a pre-built coordinator without its own registry records into
        # the context's, so sim.fabric.* never silently vanishes
        if communicator.metrics is None:
            communicator.metrics = registry
    elif fabric is not None or resolved_jobs > 1:
        communicator = TcpCoordinator(fabric, watchdog=watchdog, metrics=registry)
    if fabric is not None:
        communicator.start()
        joined = communicator.wait_for_workers()
        registry.gauge("sim.fabric.workers_connected").set(float(joined))
    _config = SweepConfig(
        jobs=resolved_jobs,
        cache_dir=os.fspath(cache_dir) if cache_dir is not None else None,
        chunk_size=chunk_size,
        watchdog=watchdog,
        communicator=communicator,
    )
    _metrics = registry
    _journal = journal
    registry.gauge("sim.parallel.jobs").set(resolved_jobs)
    prev_cache = activate_cache(ScheduleCache(cache_dir, metrics=registry))
    try:
        yield registry
    finally:
        _config, _metrics, _journal = prev_config, prev_metrics, prev_journal
        activate_cache(prev_cache)
        if communicator is not None:
            communicator.stop()


def run_points(
    fn: Callable[[S], R],
    specs: Sequence[S],
    label: str | None = None,
) -> list[R]:
    """Evaluate ``fn`` over ``specs``, preserving order.

    Serial (a plain comprehension) when no :func:`sweep_context` is
    active, when ``jobs <= 1`` with no fabric attached, or for
    single-point sweeps; otherwise fanned across the context's
    coordinator.  ``label`` names the sweep in per-sweep metrics.
    With an active journal, points already checkpointed by a previous
    run of the same sweep are served from the journal, and every fresh
    completion is checkpointed as it lands.
    """
    specs = list(specs)
    config, metrics, journal = _config, _metrics, _journal
    if metrics is not None:
        metrics.counter("sim.parallel.points_total").inc(len(specs))
        if label:
            metrics.counter(f"sim.parallel.points.{label}").inc(len(specs))
    if journal is not None:
        return _run_journaled(fn, specs, config, metrics, journal, label)
    if _is_serial(config, len(specs)):
        return [fn(spec) for spec in specs]
    return _run_parallel(fn, specs, config, metrics)


def _is_serial(config: SweepConfig | None, points: int) -> bool:
    """Whether a sweep of ``points`` runs as a plain comprehension."""
    return config is None or points <= 1 or config.communicator is None


def _run_journaled(
    fn: Callable[[S], R],
    specs: list[S],
    config: SweepConfig | None,
    metrics: MetricsRegistry | None,
    journal: SweepJournal,
    label: str | None,
) -> list[R]:
    """Journal-aware evaluation: skip checkpointed points, checkpoint
    fresh completions the moment the parent absorbs them."""
    fingerprints = [point_fingerprint(fn, spec) for spec in specs]
    results: list[R | None] = [None] * len(specs)
    todo: list[int] = []
    for i, fingerprint in enumerate(fingerprints):
        hit = journal.lookup(fingerprint)
        if SweepJournal.is_miss(hit):
            todo.append(i)
        else:
            results[i] = hit  # type: ignore[assignment]
    skipped = len(specs) - len(todo)
    if skipped:
        if metrics is not None:
            metrics.counter("sim.resilience.journal_hits").inc(skipped)
        emit_event(
            "sweep-resumed",
            kind="resilience-event",
            run_id=journal.run_id,
            label=label,
            skipped=skipped,
            total=len(specs),
        )
    if todo:

        def on_point(sub_index: int, value: R) -> None:
            index = todo[sub_index]
            results[index] = value
            if journal.append(fingerprints[index], value) and metrics is not None:
                metrics.counter("sim.resilience.journal_appends").inc()

        todo_specs = [specs[i] for i in todo]
        if _is_serial(config, len(todo_specs)):
            for sub_index, spec in enumerate(todo_specs):
                on_point(sub_index, fn(spec))
        else:
            _run_parallel(fn, todo_specs, config, metrics, on_point=on_point)
    return results  # type: ignore[return-value]


def _chunked(indexed: list[tuple[int, S]], size: int) -> list[list[tuple[int, S]]]:
    return [indexed[i : i + size] for i in range(0, len(indexed), size)]


def _run_parallel(
    fn: Callable[[S], R],
    specs: list[S],
    config: SweepConfig,
    metrics: MetricsRegistry | None,
    on_point: Callable[[int, R], None] | None = None,
) -> list[R]:
    """Fan ``specs`` over the coordinator, under one
    ``parallel.dispatch`` span when the parent is tracing (worker spans
    replay beneath it)."""
    with trace_spans.span(
        "parallel.dispatch", points=len(specs), jobs=min(config.jobs, len(specs))
    ) as dispatch_span:
        return _dispatch(fn, specs, config, metrics, on_point, dispatch_span)


def _dispatch(
    fn: Callable[[S], R],
    specs: list[S],
    config: SweepConfig,
    metrics: MetricsRegistry | None,
    on_point: Callable[[int, R], None] | None,
    dispatch_span,
) -> list[R]:
    wd = config.watchdog
    jobs = min(config.jobs, len(specs))
    chunk_size = config.chunk_size or max(1, ceil(len(specs) / (jobs * 4)))
    indexed = list(enumerate(specs))
    chunks = _chunked(indexed, chunk_size)
    results: list[R | None] = [None] * len(specs)
    done = [False] * len(specs)
    parent_sink = _sink_mod.get_sink()
    tracer = trace_spans.get_tracer()
    trace_id = tracer.trace_id if tracer is not None else None
    remote = {"points": 0}
    start = perf_counter()

    def absorb(chunk_results, records, snapshot, spans=None) -> None:
        for index, value in chunk_results:
            results[index] = value
            done[index] = True
            remote["points"] += 1
            if on_point is not None:
                on_point(index, value)
        if parent_sink is not None:
            for payload in records:
                parent_sink.write(RunRecord.from_dict(payload))
        if metrics is not None and snapshot:
            merge_snapshot(metrics, snapshot)
        if tracer is not None and spans:
            tracer.replay(
                spans,
                parent_id=dispatch_span.span_id if dispatch_span is not None else None,
            )

    def count(name: str, amount: float = 1.0) -> None:
        if metrics is not None:
            metrics.counter(name).inc(amount)

    if metrics is not None:
        metrics.counter("sim.parallel.chunks").inc(len(chunks))
        # pre-register the failure counters so a clean run reports
        # explicit zeros rather than absent instruments
        metrics.counter("sim.parallel.worker_failures")
        metrics.counter("sim.parallel.fallback_points")

    tracker = PointTracker(wd.quarantine_after)
    outstanding = chunks
    in_process: list[list[tuple[int, S]]] = []
    pool_losses = 0
    round_no = 0

    while outstanding:
        round_no += 1
        outcome = config.communicator.run_round(
            fn, outstanding, absorb, trace_id=trace_id, jobs=jobs, cache_dir=config.cache_dir
        )
        if outcome.lost:
            pool_losses += 1
            count("sim.resilience.pool_losses")
        outstanding = []
        in_process.extend(outcome.fatal)
        requeue: list[tuple[int, S]] = []
        for chunk in outcome.retryable:
            for index, spec in chunk:
                if done[index]:
                    continue
                if tracker.record_failure(index):
                    count("sim.resilience.quarantined_points")
                    emit_event(
                        "point-quarantined",
                        kind="resilience-event",
                        point=index,
                        failures=tracker.failures[index],
                    )
                    in_process.append([(index, spec)])
                else:
                    requeue.append((index, spec))
        if requeue:
            exhausted = round_no > wd.retry.max_retries
            if pool_losses >= wd.pool_loss_limit or exhausted:
                count("sim.resilience.degraded_points", float(len(requeue)))
                emit_event(
                    "pool-degraded",
                    kind="resilience-event",
                    points=len(requeue),
                    pool_losses=pool_losses,
                    rounds=round_no,
                )
                in_process.extend([point] for point in requeue)
            else:
                count("sim.resilience.requeued_points", float(len(requeue)))
                backoff = wd.retry.backoff(round_no)
                if backoff > 0:
                    if metrics is not None:
                        metrics.timer("sim.resilience.retry_backoff_wall").record(backoff)
                    _time.sleep(backoff)
                outstanding = _chunked(requeue, chunk_size)

    for chunk in in_process:
        count("sim.parallel.fallback_points", float(len(chunk)))
        for index, spec in chunk:
            if not done[index]:
                # in-process: the parent's cache and sink apply directly
                value = fn(spec)
                results[index] = value
                done[index] = True
                if on_point is not None:
                    on_point(index, value)

    if metrics is not None:
        metrics.counter("sim.parallel.points_remote").inc(remote["points"])
        metrics.timer("sim.parallel.dispatch_wall").record(perf_counter() - start)
    missing = [i for i, flag in enumerate(done) if not flag]
    if missing:  # pragma: no cover - defensive; fallback covers all paths
        raise RuntimeError(f"sweep engine lost points {missing[:5]}...")
    return results  # type: ignore[return-value]
