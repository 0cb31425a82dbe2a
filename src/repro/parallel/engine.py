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
  ``jobs=4`` vs serial, for re-runs served from the point log, and for
  distributed vs serial.
- **Each point once.**  Inside a context, every point whose
  fingerprint the context has seen -- computed earlier in the sweep, or
  read from the point log under its ``cache_dir`` -- is served without
  computing (Figures 12 and 14 and the fault-ratio figure ask for
  exactly the points of Figures 11 and 13 and the fault-delay figure).
  Only the rest are dispatched, and each is stored as it is absorbed,
  so a crashed or killed sweep re-run with the same ``cache_dir``
  resumes where it stopped (see :mod:`repro.parallel.journal`).
- **Graceful degradation.**  A failed worker (crash, hang, dead host)
  only costs its chunk, and a deterministic point *error* still
  surfaces exactly as it would serially.  The
  :class:`~repro.parallel.resilience.WatchdogConfig` (default:
  :meth:`~repro.parallel.resilience.WatchdogConfig.from_env`) requeues
  crashed and *hung* chunks under a capped, exponentially backed-off
  retry budget; points that keep failing are quarantined to in-process
  execution; and rounds that keep losing workers degrade the remainder
  to in-process.  A chunk that does not pickle runs in-process at once.
- **Observability.**  Workers buffer their telemetry
  (:class:`~repro.obs.sink.MemorySink`) per chunk and the parent writes
  the records into its active sink, so ``--telemetry`` output looks the
  same no matter where points ran; the parent counts the
  ``sim.parallel.*`` metrics itself.
  Watchdog activity is reported under ``sim.resilience.*`` and as
  ``kind="resilience-event"`` telemetry; fleet-level decisions under
  ``sim.fabric.*`` and ``kind="fabric-event"``.

Points are dispatched in chunks (default: ~4 chunks per worker) to
amortize inter-process overhead on sub-millisecond points.  Workers
heartbeat over their link while they make progress, which is what lets
the coordinator distinguish a slow chunk from a hung one.
"""

from __future__ import annotations

import os
import sys
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter
from typing import Callable, Iterator, Sequence, TypeVar

from repro.obs import sink as _sink_mod
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import emit_event
from repro.obs.telemetry import RunRecord
from repro.parallel.fabric import FabricConfig, TcpCoordinator
from repro.parallel.journal import POINT_LOG, SweepJournal, point_fingerprint
from repro.parallel.resilience import PointTracker, WatchdogConfig, _env_number

__all__ = [
    "SweepConfig",
    "default_jobs",
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


@contextmanager
def sweep_context(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    chunk_size: int | None = None,
    metrics: MetricsRegistry | None = None,
    watchdog: WatchdogConfig | None = None,
    fabric: FabricConfig | TcpCoordinator | None = None,
) -> Iterator[MetricsRegistry]:
    """Activate the sweep engine for the dynamic extent of the block.

    Args:
        jobs: worker processes (``None``/``0`` -> :func:`default_jobs`;
            ``1`` -> serial execution, still with the point store).
        cache_dir: directory of the sweep's point log
            (``<cache_dir>/points.jsonl``, see
            :mod:`repro.parallel.journal`), read once on entry: the
            points it holds are served, and every newly computed point
            is appended.  With ``None`` the point memo lives only as
            long as the context.
        chunk_size: points per dispatched chunk (default: ~4 chunks per
            worker).
        metrics: registry to record engine metrics into (default: a
            fresh one, yielded for inspection).
        watchdog: hung-worker detection and retry policy (see
            :mod:`repro.parallel.resilience`); ``None`` ->
            :meth:`WatchdogConfig.from_env` defaults.  It guards every
            parallel sweep.
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
    journal = SweepJournal(None if cache_dir is None else os.path.join(cache_dir, POINT_LOG))
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
        chunk_size=chunk_size,
        watchdog=watchdog,
        communicator=communicator,
    )
    _metrics = registry
    _journal = journal
    registry.gauge("sim.parallel.jobs").set(resolved_jobs)
    try:
        yield registry
    finally:
        _config, _metrics, _journal = prev_config, prev_metrics, prev_journal
        journal.close()
        if communicator is not None:
            communicator.stop()


def run_points(
    fn: Callable[[S], R],
    specs: Sequence[S],
    label: str | None = None,
) -> list[R]:
    """Evaluate ``fn`` over ``specs``, preserving order.

    Outside a :func:`sweep_context` this is a plain comprehension.
    Inside one, every point the context has already seen -- earlier in
    the sweep, or in the point log under its ``cache_dir`` -- is served
    without computing.  The rest run serially (``jobs <= 1`` with no
    fabric, or a single point) or across the context's coordinator,
    and each is stored as the parent absorbs it.  Only the points of a
    function found again by module and qualified name (no lambda,
    closure or bound method) whose spec
    :func:`~repro.parallel.journal.point_fingerprint` accepts are
    stored; the others always compute.  ``label`` names the sweep in
    per-sweep metrics.
    """
    specs = list(specs)
    config, metrics, journal = _config, _metrics, _journal
    if metrics is not None:
        metrics.counter("sim.parallel.points_total").inc(len(specs))
        if label:
            metrics.counter(f"sim.parallel.points.{label}").inc(len(specs))
    if config is None or journal is None:
        return [fn(spec) for spec in specs]
    fingerprints = _fingerprints(fn, specs)
    results: list[R | None] = [None] * len(specs)
    todo: list[int] = []
    from_log = 0
    for i, fingerprint in enumerate(fingerprints):
        hit = journal.lookup(fingerprint)
        if SweepJournal.is_miss(hit):
            todo.append(i)
        else:
            results[i] = hit  # type: ignore[assignment]
            from_log += journal.from_log(fingerprint)
    served = len(specs) - len(todo)
    if from_log:
        emit_event(
            "sweep-resumed",
            kind="resilience-event",
            counter="sim.parallel.points_served",
            amount=served,
            metrics=metrics,
            label=label,
            skipped=from_log,
            total=len(specs),
        )
    elif served and metrics is not None:
        metrics.counter("sim.parallel.points_served").inc(served)
    if todo:

        def on_point(sub_index: int, value: R) -> None:
            index = todo[sub_index]
            results[index] = value
            if fingerprints[index] is not None:
                journal.append(fingerprints[index], value)

        todo_specs = [specs[i] for i in todo]
        if len(todo_specs) <= 1 or config.communicator is None:
            for sub_index, spec in enumerate(todo_specs):
                on_point(sub_index, fn(spec))
        else:
            _run_parallel(fn, todo_specs, config, metrics, on_point)
    return results  # type: ignore[return-value]


def _fingerprints(fn: Callable, specs: list) -> list[str | None]:
    """Each spec's point fingerprint, or ``None`` for a point that must
    never be stored: ``fn`` is not found again by its module and
    qualified name (two lambdas, or two closures of one function, share
    a name and not a meaning), or the spec does not fingerprint."""
    target = sys.modules.get(getattr(fn, "__module__", None) or "")
    for part in getattr(fn, "__qualname__", "").split("."):
        target = getattr(target, part, None)
    if target is not fn:
        return [None] * len(specs)
    fingerprints: list[str | None] = []
    for spec in specs:
        try:
            fingerprints.append(point_fingerprint(fn, spec))
        except TypeError:
            fingerprints.append(None)
    return fingerprints


def _chunked(indexed: list[tuple[int, S]], size: int) -> list[list[tuple[int, S]]]:
    return [indexed[i : i + size] for i in range(0, len(indexed), size)]


def _run_parallel(
    fn: Callable[[S], R],
    specs: list[S],
    config: SweepConfig,
    metrics: MetricsRegistry | None,
    on_point: Callable[[int, R], None],
) -> None:
    """Fan ``specs`` over the coordinator, handing each result to
    ``on_point(index, value)`` as it is absorbed, under one
    ``parallel.dispatch`` span when the parent is tracing (worker spans
    replay beneath it)."""
    with trace_spans.span(
        "parallel.dispatch", points=len(specs), jobs=min(config.jobs, len(specs))
    ) as dispatch_span:
        _dispatch(fn, specs, config, metrics, on_point, dispatch_span)


def _dispatch(
    fn: Callable[[S], R],
    specs: list[S],
    config: SweepConfig,
    metrics: MetricsRegistry | None,
    on_point: Callable[[int, R], None],
    dispatch_span,
) -> None:
    wd = config.watchdog
    jobs = min(config.jobs, len(specs))
    chunk_size = config.chunk_size or max(1, ceil(len(specs) / (jobs * 4)))
    indexed = list(enumerate(specs))
    chunks = _chunked(indexed, chunk_size)
    done = [False] * len(specs)
    parent_sink = _sink_mod.get_sink()
    tracer = trace_spans.get_tracer()
    trace_id = tracer.trace_id if tracer is not None else None
    remote = {"points": 0}
    start = perf_counter()

    def absorb(chunk_results, records, spans=None) -> None:
        for index, value in chunk_results:
            done[index] = True
            remote["points"] += 1
            on_point(index, value)
        if parent_sink is not None:
            for payload in records:
                parent_sink.write(RunRecord.from_dict(payload))
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
            fn, outstanding, absorb, trace_id=trace_id, jobs=jobs
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
                    emit_event(
                        "point-quarantined",
                        kind="resilience-event",
                        counter="sim.resilience.quarantined_points",
                        metrics=metrics,
                        point=index,
                        failures=tracker.failures[index],
                    )
                    in_process.append([(index, spec)])
                else:
                    requeue.append((index, spec))
        if requeue:
            exhausted = round_no > wd.retry.max_retries
            if pool_losses >= wd.pool_loss_limit or exhausted:
                emit_event(
                    "pool-degraded",
                    kind="resilience-event",
                    counter="sim.resilience.degraded_points",
                    amount=float(len(requeue)),
                    metrics=metrics,
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
                # in-process: the parent's sink applies directly
                done[index] = True
                on_point(index, fn(spec))

    if metrics is not None:
        metrics.counter("sim.parallel.points_remote").inc(remote["points"])
        metrics.timer("sim.parallel.dispatch_wall").record(perf_counter() - start)
    missing = [i for i, flag in enumerate(done) if not flag]
    if missing:  # pragma: no cover - defensive; fallback covers all paths
        raise RuntimeError(f"sweep engine lost points {missing[:5]}...")
