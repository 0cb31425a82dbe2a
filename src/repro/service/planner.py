"""The planner service: cache-backed, single-flight, built in worker processes.

This is the service's middle layer -- handlers call it, it calls the
library -- and it adds the three production mechanics a long-lived
process needs on top of :mod:`repro.parallel.cache`:

* **Repository.**  The content-addressed, size-bounded
  :class:`~repro.parallel.cache.ScheduleCache` is the backing store.
  Keys come from :func:`~repro.parallel.cache.schedule_table_key` and
  :func:`~repro.parallel.cache.delay_stats_key`, which canonicalize the
  destination set, so one input always addresses one entry.

* **Single-flight coalescing.**  N concurrent requests for the same key
  perform exactly one build; followers await the leader's task (shielded,
  so one caller's deadline cannot cancel everyone's build) and all share
  the one stored bytes object.  ``sim.service.builds`` counts actual
  builds, ``sim.service.coalesced`` counts followers.

* **Build processes.**  Builds are pure-Python CPU work, so they run in
  ``max_workers`` worker processes, one build per worker at a time,
  while the event loop keeps accepting connections and serving cache
  hits.  A build is a module-level function of its
  :class:`~repro.service.protocol.PlanRequest`; the worker returns the
  value's canonical JSON bytes, which the loop stores and splices into
  the response.  The workers are forked when the planner is made --
  ``repro serve`` makes it after its imports and before it opens its
  socket or starts a thread, so no worker holds a server socket -- and
  they ignore SIGINT and SIGTERM: the server's drain decides when they
  stop.  Builds beyond the worker count wait in the planner's queue.
  A worker that dies fails only the build it held (its request answers
  500, and nothing is cached) and is replaced by a spawned worker, a
  fresh interpreter that inherits none of the server's sockets, since
  forking a process whose threads run is not safe.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pickle
import signal
import socket
import sys
import time
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import (
    ScheduleCache,
    cache_key,
    canonical_json,
    compute_delay_stats,
    compute_schedule_table,
    delay_stats_key,
    schedule_table_key,
)
from repro.service.protocol import PlanRequest

__all__ = ["PlanResult", "PlannerService", "default_workers", "verify_table_key"]

#: Signals a build worker ignores; the server stops it by closing its pipe.
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}

#: Where a spawned worker imports ``repro`` from: this package's tree.
_SRC = str(Path(__file__).resolve().parents[2])

Build = Callable[[PlanRequest], bytes]

#: Every open pool in this process: a forked worker closes their pipes,
#: or a pool closed while a later one's workers held its pipes would
#: wait forever for its own workers to read EOF.
_POOLS: weakref.WeakSet[_BuildPool] = weakref.WeakSet()


def default_workers() -> int:
    """Build processes when unspecified: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


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


# -- builds: run in a worker, each finds its compute step by name when
# it runs, so a patch made before the workers fork reaches them ---------


def _schedule(req: PlanRequest) -> bytes:
    return canonical_json(
        compute_schedule_table(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
    )


def _verify(req: PlanRequest) -> bytes:
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
    return canonical_json(
        {
            "ok": result.ok,
            "errors": list(result.errors),
            "max_step": result.schedule.max_step if result.schedule is not None else None,
        }
    )


def _simulate(req: PlanRequest) -> bytes:
    return canonical_json(
        compute_delay_stats(
            req.algorithm,
            req.n,
            req.source,
            req.destinations,
            req.size,
            req.timings,
            req.ports,
            req.order,
        )
    )


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pickle round trip to the server, else
    a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve_builds(fd: int) -> None:
    """A build worker's loop on its end ``fd`` of the pipe: run each
    pickled ``(build, request)`` the server sends and answer
    ``(True, bytes)`` or ``(False, exception)``, until the server
    closes the pipe."""
    for sig in _STOP_SIGNALS:
        signal.signal(sig, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)  # a spawned worker starts masked
    conn = Connection(fd)
    while True:
        try:
            build, req = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        try:
            reply = (True, build(req))
        except Exception as exc:  # the server raises it for the build's waiters
            reply = (False, _portable(exc))
        try:
            conn.send(reply)
        except OSError:  # the server is gone
            return


class _Worker:
    """One build process, the server's end of its pipe, and the build
    it is running (``None`` while idle)."""

    __slots__ = ("pid", "conn", "job")

    def __init__(self, pid: int, conn: Connection) -> None:
        self.pid = pid
        self.conn = conn
        self.job: asyncio.Future | None = None


class _BuildPool:
    """``size`` build processes fed from one queue on the event loop.

    Each worker runs one build at a time over its own socket pair; the
    loop reads a result when the worker's end becomes readable, so no
    thread takes part.
    """

    def __init__(self, size: int) -> None:
        self._workers: list[_Worker] = []
        _POOLS.add(self)
        for _ in range(size):
            self._workers.append(self._fork())
        self._idle = list(self._workers)
        self._queue: deque[tuple[asyncio.Future, bytes]] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._settled: asyncio.Future | None = None

    def _fork(self) -> _Worker:
        parent, child = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # the worker; it leaves only through os._exit
            code = 1
            try:
                parent.close()
                for pool in _POOLS:
                    for other in pool._workers:
                        other.conn.close()
                _serve_builds(child.detach())
                code = 0
            finally:
                os._exit(code)
        child.close()
        return _Worker(pid, Connection(parent.detach()))

    def _spawn(self) -> _Worker:
        parent, child = socket.socketpair()
        with child:
            child.set_inheritable(True)
            code = (
                "from repro.service.planner import _serve_builds; "
                f"_serve_builds({child.fileno()})"
            )
            path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-c", code],
                dict(os.environ, PYTHONPATH=path),
                setsigmask=_STOP_SIGNALS,
            )
        return _Worker(pid, Connection(parent.detach()))

    def _replace(self, dead: _Worker) -> _Worker:
        """Reap a dead worker and start its replacement by spawning."""
        dead.conn.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(dead.pid, 0)
        worker = self._spawn()
        self._workers[self._workers.index(dead)] = worker
        return worker

    def submit(self, build: Build, req: PlanRequest) -> asyncio.Future:
        """Queue one build; the future resolves to its bytes.  Cancelling
        the future drops a build no worker has started."""
        self._loop = asyncio.get_running_loop()
        future = self._loop.create_future()
        self._queue.append((future, pickle.dumps((build, req))))
        self._dispatch()
        return future

    def _dispatch(self) -> None:
        assert self._loop is not None
        while self._idle and self._queue:
            future, payload = self._queue.popleft()
            if future.cancelled():
                continue
            worker = self._idle.pop()
            try:
                worker.conn.send_bytes(payload)
            except OSError:  # it died while idle: replace it, then retry
                self._idle.append(self._replace(worker))
                self._queue.appendleft((future, payload))
                continue
            worker.job = future
            self._loop.add_reader(worker.conn.fileno(), self._collect, worker)

    def _collect(self, worker: _Worker) -> None:
        """A worker's pipe is readable: its build's reply, or EOF
        because the worker died."""
        assert self._loop is not None and worker.job is not None
        self._loop.remove_reader(worker.conn.fileno())
        future, worker.job = worker.job, None
        died = False
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            ok, value, died = False, RuntimeError(f"build worker {worker.pid} died"), True
        if not future.cancelled():
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._idle.append(self._replace(worker) if died else worker)
        self._dispatch()
        if self._settled is not None and not self._settled.done():
            self._settled.set_result(None)

    async def settle(self) -> None:
        """Wait until no worker is running a build."""
        while any(worker.job is not None for worker in self._workers):
            self._settled = asyncio.get_running_loop().create_future()
            await self._settled

    def close(self) -> None:
        """Stop and reap every worker.  An idle worker exits when its
        pipe closes; one still building is killed, since nobody is left
        to take its result."""
        loop_open = self._loop is not None and not self._loop.is_closed()
        for worker in self._workers:
            if worker.job is not None:
                if loop_open:
                    self._loop.remove_reader(worker.conn.fileno())
                    worker.job.cancel()
                os.kill(worker.pid, signal.SIGKILL)
            worker.conn.close()
        for worker in self._workers:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(worker.pid, 0)
        self._workers.clear()
        self._idle.clear()
        self._queue.clear()


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
    """Async facade over the schedule/verify/simulate computations.

    Making one forks its ``max_workers`` build processes (default: the
    CPUs this process may run on); :meth:`drain` or :meth:`close`
    stops them.
    """

    def __init__(
        self,
        cache: ScheduleCache | None = None,
        metrics: MetricsRegistry | None = None,
        max_workers: int | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pool = _BuildPool(max_workers if max_workers is not None else default_workers())
        self._inflight: dict[str, asyncio.Task] = {}

    # -- request entry points ------------------------------------------

    async def schedule(self, req: PlanRequest) -> PlanResult:
        key = schedule_table_key(
            req.algorithm, req.n, req.source, req.destinations, req.ports, req.order
        )
        return await self._resolve(key, _schedule, req)

    async def verify(self, req: PlanRequest) -> PlanResult:
        return await self._resolve(verify_table_key(req), _verify, req)

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
        return await self._resolve(key, _simulate, req)

    # -- single-flight core --------------------------------------------

    async def _build_and_store(self, key: str, build: Build, req: PlanRequest) -> bytes:
        t0 = time.perf_counter()
        raw = await self._pool.submit(build, req)
        self.metrics.timer("sim.service.build_seconds").record(time.perf_counter() - t0)
        return self.cache.put_raw(key, raw)

    async def _resolve(self, key: str, build: Build, req: PlanRequest) -> PlanResult:
        raw = self.cache.get_raw(key)
        if raw is not None:
            return PlanResult(key, raw, "cache")
        task = self._inflight.get(key)
        if task is None:
            self.metrics.counter("sim.service.builds").inc()
            task = asyncio.ensure_future(self._build_and_store(key, build, req))
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

    def worker_pids(self) -> list[int]:
        """The build processes' pids (a dead one's replacement included)."""
        return [worker.pid for worker in self._pool._workers]

    async def drain(self) -> None:
        """End the in-flight builds, which outlive a waiter that gave up
        on them (at its deadline, or cancelled by an HTTP drain), then
        stop the workers.

        Cancelling a build's task drops it from the queue if no worker
        has started it; drain waits, on the event loop, for the builds
        already running, and then stops the workers.
        """
        builds = list(self._inflight.values())
        for task in builds:
            task.cancel()
        await asyncio.gather(*builds, return_exceptions=True)
        await self._pool.settle()
        self.close()

    def close(self) -> None:
        self._pool.close()
