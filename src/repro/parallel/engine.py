"""Sweep engine: fan experiment points across a worker fabric.

The paper's evaluation is a grid of independent simulation points --
(cube size, message length, algorithm, trial seed) -- so the sweep
engine is deliberately simple: a point function (any picklable
module-level callable), a list of point specs (picklable, primitives
only), and :func:`run_points`, which executes them serially or across
the active :func:`sweep_context`'s worker fabric.  Which workers is a
transport decision, delegated to a
:class:`~repro.parallel.fabric.Communicator`: the default
:class:`~repro.parallel.fabric.LocalCommunicator` is the original
single-host process pool, and a
:class:`~repro.parallel.fabric.TcpCoordinator` (``fabric=`` argument)
fans the same chunks over multi-host TCP workers instead.

Guarantees:

- **Bit-identity with the serial path.**  The same point function runs
  either way; results are reassembled in submission order; per-point
  seeds are part of the spec, never derived from scheduling.  The
  regression suite asserts byte-identical figure tables for
  ``jobs=4`` vs serial, cache cold and warm -- and, with a journal,
  for resumed vs uninterrupted runs, and for distributed vs serial.
- **Graceful degradation.**  A failed worker (crash, pickling error,
  broken pool, dead host) only costs its chunk, which is transparently
  re-run; a deterministic point *error* still surfaces exactly as it
  would serially.  With a :class:`~repro.parallel.resilience.WatchdogConfig`
  active, crashed and *hung* chunks are first requeued under a capped,
  exponentially backed-off retry budget; points that keep failing are
  quarantined to in-process execution; a repeatedly lost pool degrades
  the remainder to in-process; and a TCP fabric whose last worker host
  dies degrades the sweep to the local backend mid-flight.
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
heartbeat before every point, which is what lets the parent distinguish
a slow chunk from a hung one -- through a shared manager dict on the
local pool, over the wire on the TCP fabric.
"""

from __future__ import annotations

import os
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from time import perf_counter
from typing import Callable, Iterator, Sequence, TypeVar

from repro.obs import sink as _sink_mod
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry, merge_snapshot
from repro.obs.sink import emit_event
from repro.obs.telemetry import RunRecord
from repro.parallel.cache import ScheduleCache, activate_cache
from repro.parallel.fabric import (
    Communicator,
    FabricConfig,
    LocalCommunicator,
    TcpCoordinator,
)
from repro.parallel.journal import SweepJournal, point_fingerprint
from repro.parallel.resilience import PointTracker, WatchdogConfig

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

    ``communicator`` is the transport the engine dispatches rounds to;
    ``None`` means a fresh per-sweep
    :class:`~repro.parallel.fabric.LocalCommunicator`.
    """

    jobs: int
    cache_dir: str | None = None
    chunk_size: int | None = None
    watchdog: WatchdogConfig | None = None
    communicator: Communicator | None = None


def default_jobs() -> int:
    """Worker count when unspecified: ``REPRO_JOBS`` or the CPU count."""
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


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
    fabric: FabricConfig | Communicator | None = None,
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
            :mod:`repro.parallel.resilience`); ``None`` disables
            timeouts and requeueing (failures fall straight back to
            in-process execution, the pre-watchdog behavior) -- except
            with a ``fabric``, where heartbeat timeouts are load-bearing
            and :meth:`WatchdogConfig.from_env` defaults apply.
        journal: checkpoint journal for crash-safe resume (see
            :mod:`repro.parallel.journal`); the caller owns its
            lifecycle (open/close).
        fabric: distribute chunks over TCP workers instead of the local
            pool -- either a :class:`~repro.parallel.fabric.FabricConfig`
            (a :class:`~repro.parallel.fabric.TcpCoordinator` is built,
            started, and stopped by the context, and the context blocks
            up to ``fabric.wait_s`` for ``fabric.min_workers`` to join)
            or any pre-built :class:`~repro.parallel.fabric.Communicator`
            (started and stopped by the context).  If the fabric loses
            its last worker, the sweep degrades to the local pool.

    Contexts nest: the innermost wins, the outer is restored on exit.
    """
    global _config, _metrics, _journal
    resolved_jobs = default_jobs() if not jobs else max(1, int(jobs))
    prev_config, prev_metrics, prev_journal = _config, _metrics, _journal
    registry = metrics if metrics is not None else MetricsRegistry()
    communicator: Communicator | None = None
    if fabric is not None:
        if watchdog is None:
            # heartbeat timeouts are what detect a dead host; a fabric
            # without a watchdog would never notice one
            watchdog = WatchdogConfig.from_env()
        if isinstance(fabric, Communicator):
            communicator = fabric
            # a pre-built communicator without its own registry records
            # into the context's, so sim.fabric.* never silently vanishes
            if getattr(communicator, "metrics", None) is None:
                communicator.metrics = registry
        else:
            communicator = TcpCoordinator(fabric, watchdog=watchdog, metrics=registry)
        communicator.start()
        if isinstance(communicator, TcpCoordinator):
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
    communicator.  ``label`` names the sweep in per-sweep metrics.
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
    if config is None or points <= 1:
        return True
    return config.jobs <= 1 and config.communicator is None


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
    """Fan ``specs`` over the communicator, under one
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

    comm = config.communicator
    local: Communicator | None = None
    if comm is None:
        comm = local = LocalCommunicator(jobs, config.cache_dir, wd, metrics)

    tracker = PointTracker(wd.quarantine_after if wd is not None else 1)
    outstanding = chunks
    in_process: list[list[tuple[int, S]]] = []
    pool_losses = 0
    round_no = 0

    while outstanding:
        round_no += 1
        outcome = comm.run_round(fn, outstanding, absorb, done, trace_id)
        retryable, fatal, pool_lost = outcome.retryable, outcome.fatal, outcome.lost
        if pool_lost:
            pool_losses += 1
            count("sim.resilience.pool_losses")
        if local is None and not comm.healthy:
            # the fabric's last worker host is gone: finish the sweep on
            # the local pool, with a fresh loss budget -- from here on
            # this is an ordinary single-host sweep
            count("sim.fabric.degraded_to_local")
            emit_event("fabric-degraded-local", kind="fabric-event", **comm.describe())
            comm = local = LocalCommunicator(jobs, config.cache_dir, wd, metrics)
            pool_losses = 0
        outstanding = []
        in_process.extend(fatal)
        if wd is None:
            # pre-watchdog behavior: one pool pass, failures fall back
            in_process.extend(retryable)
            break
        requeue: list[tuple[int, S]] = []
        for chunk in retryable:
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
