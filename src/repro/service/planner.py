"""The planner service: cache-backed, single-flight, executor-offloaded.

This is the service's middle layer -- handlers call it, it calls the
library -- and it adds the three production mechanics a long-lived
process needs on top of :mod:`repro.parallel.cache`:

* **Repository.**  The content-addressed, size-bounded
  :class:`~repro.parallel.cache.ScheduleCache` is the backing store.
  Keys come from the *same* key functions the sweep points use
  (:func:`~repro.parallel.cache.schedule_table_key`,
  :func:`~repro.parallel.cache.delay_stats_key`), so one input always
  addresses one entry.

* **Single-flight coalescing.**  N concurrent requests for the same key
  perform exactly one build; followers await the leader's task (shielded,
  so one caller's deadline cannot cancel everyone's build) and all share
  the one stored bytes object.  ``sim.service.builds`` counts actual
  builds, ``sim.service.coalesced`` counts followers.

* **Executor offload.**  Builds are pure-Python CPU work; they run on a
  bounded :class:`~concurrent.futures.ThreadPoolExecutor` so the event
  loop keeps accepting connections and serving cache hits while a build
  is in progress.  The executor's bounded worker count is the service's
  build concurrency; excess builds queue inside the executor.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import (
    ScheduleCache,
    cache_key,
    compute_delay_stats,
    compute_schedule_table,
    delay_stats_key,
    schedule_table_key,
)
from repro.service.protocol import PlanRequest

__all__ = ["PlanResult", "PlannerService", "verify_table_key"]


def verify_table_key(req: PlanRequest) -> str:
    """Content address of one verification verdict.

    Same input fields as a schedule table (a verdict is a pure function
    of them), under its own ``kind`` namespace.
    """
    return cache_key(
        "verify",
        algorithm=req.algorithm,
        n=req.n,
        source=req.source,
        dests=list(req.destinations),
        ports=[req.ports.ports, req.ports.name],
        order=req.order.name,
    )


def _compute_verify(req: PlanRequest) -> dict:
    from repro.multicast.registry import get_algorithm
    from repro.multicast.verify import verify_multicast

    result = verify_multicast(
        get_algorithm(req.algorithm),
        req.n,
        req.source,
        list(req.destinations),
        req.ports,
        req.order,
    )
    return {
        "ok": result.ok,
        "errors": list(result.errors),
        "max_step": result.schedule.max_step if result.schedule is not None else None,
    }


@dataclass(slots=True)
class PlanResult:
    """One resolved plan: the cached value, as the canonical JSON bytes
    the repository stores, plus where it came from.

    ``source`` is ``"cache"`` for a repository hit and ``"build"`` for
    a freshly computed value -- including for every follower coalesced
    onto that build, so one coalesced group reports uniformly (and
    serializes byte-identically).
    """

    key: str
    value: bytes
    source: str


class PlannerService:
    """Async facade over the schedule/verify/simulate computations."""

    def __init__(
        self,
        cache: ScheduleCache | None = None,
        metrics: MetricsRegistry | None = None,
        max_workers: int = 4,
        build_delay_s: float = 0.0,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: artificial per-build delay; a test/soak knob that widens the
        #: coalescing window without changing any computed value.
        self.build_delay_s = build_delay_s
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service-build"
        )
        self._inflight: dict[str, asyncio.Task] = {}

    # -- request entry points ------------------------------------------

    async def schedule(self, req: PlanRequest) -> PlanResult:
        key = schedule_table_key(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
        return await self._resolve(
            key,
            lambda: compute_schedule_table(
                req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
            ),
        )

    async def verify(self, req: PlanRequest) -> PlanResult:
        return await self._resolve(verify_table_key(req), lambda: _compute_verify(req))

    async def simulate(self, req: PlanRequest) -> PlanResult:
        key = delay_stats_key(
            req.algorithm,
            req.n,
            req.source,
            req.destinations,
            req.size,
            req.timings,
            req.ports,
            req.order,
        )
        return await self._resolve(
            key,
            lambda: compute_delay_stats(
                req.algorithm,
                req.n,
                req.source,
                req.destinations,
                req.size,
                req.timings,
                req.ports,
                req.order,
            ),
        )

    # -- single-flight core --------------------------------------------

    def _build(self, build: Callable[[], dict]) -> dict:
        if self.build_delay_s > 0.0:
            time.sleep(self.build_delay_s)
        return build()

    async def _build_and_store(self, key: str, build: Callable[[], dict]) -> bytes:
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        value = await loop.run_in_executor(self._executor, self._build, build)
        self.metrics.timer("sim.service.build_seconds").record(time.perf_counter() - t0)
        return self.cache.put(key, value)

    async def _resolve(self, key: str, build: Callable[[], dict]) -> PlanResult:
        raw = self.cache.get_raw(key)
        if raw is not None:
            return PlanResult(key, raw, "cache")
        task = self._inflight.get(key)
        if task is None:
            self.metrics.counter("sim.service.builds").inc()
            task = asyncio.ensure_future(self._build_and_store(key, build))
            self._inflight[key] = task
            task.add_done_callback(lambda t: self._finish(key, t))
        else:
            self.metrics.counter("sim.service.coalesced").inc()
        # shield: a cancelled waiter (deadline, dropped connection) must
        # not cancel the build the rest of the coalesced group awaits
        raw = await asyncio.shield(task)
        return PlanResult(key, raw, "build")

    def _finish(self, key: str, task: asyncio.Task) -> None:
        self._inflight.pop(key, None)
        if not task.cancelled() and task.exception() is not None:
            # retrieve so an all-waiters-cancelled failure never logs
            # "exception was never retrieved"
            self.metrics.counter("sim.service.build_errors").inc()

    def inflight_builds(self) -> int:
        return len(self._inflight)

    async def drain(self) -> None:
        """End the in-flight builds, which outlive a waiter that gave up
        on them (at its deadline, or cancelled by an HTTP drain), then
        release the executor.

        Cancelling a build's task cancels its executor future, so a
        build still queued never starts; :meth:`close` waits, off the
        event loop, for those already running.
        """
        builds = list(self._inflight.values())
        for task in builds:
            task.cancel()
        await asyncio.gather(*builds, return_exceptions=True)
        await asyncio.to_thread(self.close)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
