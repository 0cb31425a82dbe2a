"""The distributed sweep fabric: pluggable chunk transports.

The sweep engine (:mod:`repro.parallel.engine`) fans point chunks over
*some* pool of workers and absorbs ``(results, telemetry, metrics,
spans)`` tuples back.  This module abstracts *which* pool behind a
:class:`Communicator`: a start/stop lifecycle plus one operation --
:meth:`Communicator.run_round` -- that executes a batch of chunks and
reports which chunks failed retryably (a crashed or hung worker),
which failed fatally (the point function itself raised), and whether
the backend lost capacity doing it.  Two backends:

- :class:`LocalCommunicator` -- the original single-host
  :class:`~concurrent.futures.ProcessPoolExecutor` machinery,
  refactored in unchanged: per-chunk telemetry buffering, shared
  manager-dict heartbeats, hung-pool kill.  This is the default and
  the degradation target.
- :class:`TcpCoordinator` -- a stdlib-only TCP coordinator for
  multi-host sweeps.  Remote hosts run ``repro-hypercube worker
  --connect HOST:PORT`` (:mod:`repro.parallel.worker`); each connected
  worker executes one chunk at a time, so a fleet of unequal hosts
  load-balances itself.  Workers may join at any time, mid-sweep
  included.

Fleet-scope robustness reuses the engine's single-host machinery at
the next level up:

- **Per-host heartbeats.**  Every worker link carries liveness beats;
  a link whose beat age passes the watchdog's soft timeout is flagged
  (``sim.fabric.soft_timeouts``), and one past the hard timeout is
  declared dead -- its socket is closed (which makes a busy worker
  process exit rather than burn a CPU on an abandoned chunk) and its
  chunk is requeued.
- **Dead-host detection -> requeue.**  A vanished connection (SIGKILL,
  OOM, network partition) surfaces as an EOF on the reader thread; the
  host's in-flight chunk returns to the round's queue immediately.
  Requeued points flow through the engine's existing capped-backoff
  :class:`~repro.parallel.resilience.RetryPolicy` and
  :class:`~repro.parallel.resilience.PointTracker` quarantine -- point
  indices are transport-agnostic, so a poison point is quarantined no
  matter how many hosts it has crashed.
- **Graceful degradation.**  When the last remote host dies (or none
  ever connects), the engine swaps the coordinator for a
  :class:`LocalCommunicator` and the sweep continues on the local
  process pool, bit-identically.
- **Observability.**  Every failover decision is a ``sim.fabric.*``
  metric, a ``kind="fabric-event"`` telemetry record, and (while
  tracing) a ``fabric.<event>`` instant span, all through
  :func:`repro.obs.sink.emit_event` -- the same emitter as the
  engine's ``kind="resilience-event"`` decisions one level down.

The wire protocol (:func:`send_frame` / :func:`recv_frame`) is
length-prefixed pickle over a trusted network -- the same trust model
as :mod:`multiprocessing` itself, documented in docs/RESILIENCE.md.
Results cross the wire as the exact objects the point function
returned (pickle round-trips them bit-identically), which is what
makes a distributed sweep byte-identical to a serial one.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import pickle
import queue
import socket
import struct
import threading
import time as _time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs import sink as _sink_mod
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import MemorySink, emit_event
from repro.parallel.cache import ScheduleCache, activate_cache, get_active_cache
from repro.parallel.resilience import WatchdogConfig

__all__ = [
    "Communicator",
    "FabricConfig",
    "LocalCommunicator",
    "RoundOutcome",
    "TcpCoordinator",
    "recv_frame",
    "send_frame",
]

#: Chunk payloads are small (a function reference plus primitive
#: specs); anything past this is a protocol error, not a sweep.
MAX_FRAME_BYTES = 64 << 20

_LEN = struct.Struct(">Q")


def send_frame(sock: socket.socket, payload: object, lock: threading.Lock | None = None) -> None:
    """Write one length-prefixed pickled frame to ``sock``.

    ``lock`` serializes concurrent senders on a shared socket (a
    worker's main loop and its heartbeat thread).
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}")
    data = _LEN.pack(len(blob)) + blob
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    parts = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None
        parts.append(chunk)
        count -= len(chunk)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> object | None:
    """Read one frame, or ``None`` on a clean or torn EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    blob = _recv_exact(sock, length)
    if blob is None:
        return None
    return pickle.loads(blob)


@dataclass(frozen=True, slots=True)
class FabricConfig:
    """Coordinator-side tuning for a TCP sweep fabric.

    Attributes:
        bind_host: interface the coordinator listens on.
        bind_port: listen port (``0`` -> ephemeral; the bound port is
            on :attr:`TcpCoordinator.port` after ``start()``).
        min_workers: how many workers :meth:`TcpCoordinator.wait_for_workers`
            waits for before the sweep starts dispatching (late joiners
            are still welcome).
        wait_s: how long to wait for ``min_workers`` before proceeding
            with however many (possibly zero) have joined.
        cache_url: advertised shared-cache service URL (the PR 6
            planning service); workers that did not pass their own
            ``--cache-url`` adopt it at handshake.
    """

    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    min_workers: int = 1
    wait_s: float = 15.0
    cache_url: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.bind_port <= 65535:
            raise ValueError(f"bind_port must be in [0, 65535], got {self.bind_port}")
        if self.min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {self.min_workers}")
        if self.wait_s < 0:
            raise ValueError(f"wait_s must be >= 0, got {self.wait_s}")


@dataclass(slots=True)
class RoundOutcome:
    """What one :meth:`Communicator.run_round` pass accomplished.

    ``retryable`` chunks failed for transport-level reasons (crashed,
    hung, or vanished workers) and may be requeued under the retry
    budget; ``fatal`` chunks raised inside the point function (they go
    to in-process execution, where the error surfaces exactly as it
    would serially); ``lost`` reports that the backend lost capacity
    (a killed pool, a dead host) during the pass.
    """

    retryable: list
    fatal: list
    lost: bool


class Communicator(abc.ABC):
    """A chunk transport: lifecycle + one round of dispatch/collect.

    The engine treats every backend identically: submit the round's
    chunks, absorb whatever comes home, sort the casualties into
    :class:`RoundOutcome`.  ``absorb`` is always invoked on the calling
    thread, so journal appends and sink writes stay single-writer.
    """

    #: short transport name for metrics and event payloads.
    name: str = "abstract"

    def start(self) -> None:
        """Acquire transport resources (sockets, threads)."""

    def stop(self) -> None:
        """Release transport resources; idempotent."""

    @property
    def healthy(self) -> bool:
        """Whether the backend still has capacity worth dispatching to."""
        return True

    def describe(self) -> dict:
        """Telemetry payload identifying this transport."""
        return {"transport": self.name}

    @abc.abstractmethod
    def run_round(
        self,
        fn: Callable,
        chunks: list[list[tuple[int, object]]],
        absorb: Callable,
        done: Sequence[bool],
        trace_id: str | None = None,
    ) -> RoundOutcome:
        """Execute one batch of chunks, absorbing completions inline."""

    def __enter__(self) -> "Communicator":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


# -- the single-host backend (the original process pool) ---------------


def _worker_init(cache_dir: str | None) -> None:
    """Pool initializer: give the worker its own cache (fresh memory
    layer, shared disk layer) so parent state never leaks in."""
    activate_cache(ScheduleCache(cache_dir))


def run_chunk(
    fn: Callable,
    chunk: Sequence[tuple[int, object]],
    chunk_id: int | None = None,
    heartbeats=None,
    trace_id: str | None = None,
) -> tuple[list[tuple[int, object]], list[dict], dict[str, dict], dict | None]:
    """Execute one chunk of (index, spec) pairs inside a worker.

    The worker side of *every* backend -- pool processes call it via
    the executor, TCP workers call it per received chunk -- so
    telemetry, metrics, and tracing behave identically no matter where
    a point ran.  Telemetry is buffered in a :class:`MemorySink`
    (never written directly from the worker -- a dead worker must not
    leave partial or duplicate records) and cache metrics go to a
    per-chunk registry so the parent can merge exact deltas.  When the
    parent supplied a ``heartbeats`` mapping (watchdog mode), the
    worker beats before every point so the parent can tell slow from
    hung.  When the parent is tracing (``trace_id``), the worker runs
    its own tracer -- seeded from the parent's trace id, the chunk id,
    and the worker pid so span ids never collide across chunks -- and
    ships the span snapshot home in the return tuple for replay,
    exactly like the telemetry buffer.
    """
    registry = MetricsRegistry()
    cache = get_active_cache()
    prev_cache_metrics = cache.metrics if cache is not None else None
    if cache is not None:
        cache.metrics = registry
    buffer = MemorySink()
    prev_sink = _sink_mod.configure(buffer)
    worker_tracer = None
    prev_tracer = None
    chunk_span = None
    if trace_id is not None:
        worker_tracer = trace_spans.Tracer(
            trace_id=trace_spans.derive_trace_id(trace_id, "chunk", chunk_id, os.getpid()),
            label=f"chunk-{chunk_id}",
        )
        prev_tracer = trace_spans.configure_tracing(worker_tracer)
        chunk_span = worker_tracer.start_span(
            "parallel.chunk", {"chunk": chunk_id, "points": len(chunk)}
        )

    def beat() -> None:
        if heartbeats is not None:
            try:
                # wall clock on purpose: heartbeat ages are compared in
                # the *parent* process, and Python only guarantees the
                # monotonic clock is comparable within one process
                # repro: lint-ok[REP002] cross-process heartbeat timestamps need a shared clock
                heartbeats[chunk_id] = _time.time()
            except Exception:
                # manager gone: the parent is tearing us down; count it
                # so the suppression shows up in the merged metrics if
                # this chunk still makes it home
                registry.counter("sim.resilience.heartbeat_errors").inc()

    try:
        results = []
        for index, spec in chunk:
            beat()
            results.append((index, fn(spec)))
    finally:
        if worker_tracer is not None:
            if chunk_span is not None:
                worker_tracer.end_span(chunk_span)
            trace_spans.configure_tracing(prev_tracer)
        _sink_mod.configure(prev_sink)
        if cache is not None:
            cache.metrics = prev_cache_metrics
    trace_snapshot = worker_tracer.snapshot() if worker_tracer is not None else None
    return (
        results,
        [r.to_dict() for r in buffer.records],
        registry.snapshot(),
        trace_snapshot,
    )


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's workers (hung-pool containment).

    Reaches into the executor because the public API has no way to kill
    a worker; a terminated process unblocks the executor's own joins.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        # repro: lint-ok[REP004] best-effort teardown of an already-dead pool; no registry in scope
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class LocalCommunicator(Communicator):
    """The original single-host process pool behind the fabric ABC.

    One :class:`~concurrent.futures.ProcessPoolExecutor` per round (a
    fresh pool per retry round is what contains a poisoned or hung
    pool), heartbeats through a shared manager dict, hung-pool kill
    and requeue under the watchdog.  Behavior is exactly the
    pre-fabric engine's; the chaos and bit-identity suites pin it.
    """

    name = "local"

    def __init__(
        self,
        jobs: int,
        cache_dir: str | None = None,
        watchdog: WatchdogConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache_dir = cache_dir
        self.watchdog = watchdog
        self.metrics = metrics

    def describe(self) -> dict:
        return {"transport": self.name, "jobs": self.jobs}

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def run_round(
        self,
        fn: Callable,
        chunks: list[list[tuple[int, object]]],
        absorb: Callable,
        done: Sequence[bool],
        trace_id: str | None = None,
    ) -> RoundOutcome:
        wd = self.watchdog
        retryable: list[list[tuple[int, object]]] = []
        fatal: list[list[tuple[int, object]]] = []
        pool_lost = False
        manager = None
        heartbeats = None
        soft_flagged: set[int] = set()
        try:
            if wd is not None:
                manager = multiprocessing.Manager()
                heartbeats = manager.dict()
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)) or 1,
                initializer=_worker_init,
                initargs=(self.cache_dir,),
            ) as pool:
                pending: dict[Future, tuple[int, list[tuple[int, object]]]] = {}
                for chunk_id, chunk in enumerate(chunks):
                    future = pool.submit(run_chunk, fn, chunk, chunk_id, heartbeats, trace_id)
                    pending[future] = (chunk_id, chunk)
                hung = False
                while pending and not hung:
                    timeout = wd.poll_s if wd is not None else None
                    finished, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
                    for future in finished:
                        _, chunk = pending.pop(future)
                        try:
                            absorb(*future.result())
                        except BrokenProcessPool:
                            self._count("sim.parallel.worker_failures")
                            pool_lost = True
                            retryable.append(chunk)
                        except Exception:
                            self._count("sim.parallel.worker_failures")
                            if wd is None:
                                # legacy behavior: any failure falls back
                                # in-process (where a deterministic error
                                # re-raises exactly as it would serially)
                                retryable.append(chunk)
                            else:
                                fatal.append(chunk)
                    if wd is not None and pending:
                        # repro: lint-ok[REP002] compared against worker wall-clock heartbeats
                        now = _time.time()
                        for chunk_id, _chunk in pending.values():
                            try:
                                beat = heartbeats.get(chunk_id)  # type: ignore[union-attr]
                            except Exception:  # pragma: no cover - manager died
                                self._count("sim.resilience.heartbeat_errors")
                                beat = None
                            if beat is None:
                                continue  # not started yet; cannot be hung
                            age = now - float(beat)
                            if age > wd.soft_timeout_s and chunk_id not in soft_flagged:
                                soft_flagged.add(chunk_id)
                                self._count("sim.resilience.soft_timeouts")
                            if age > wd.hard_timeout_s:
                                hung = True
                        if hung:
                            self._count("sim.resilience.hung_chunks", float(len(pending)))
                            emit_event(
                                "hung-pool-killed",
                                kind="resilience-event",
                                pending_chunks=len(pending),
                                hard_timeout_s=wd.hard_timeout_s,
                            )
                            for future in pending:
                                future.cancel()
                            _kill_pool_processes(pool)
                            retryable.extend(chunk for _, chunk in pending.values())
                            pending = {}
                            pool_lost = True
                if hung:
                    pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            # the pool itself failed (submission error, fork failure):
            # everything not yet absorbed may be requeued
            self._count("sim.parallel.worker_failures")
            pool_lost = True
            claimed = {id(chunk) for chunk in retryable} | {id(chunk) for chunk in fatal}
            retryable.extend(
                chunk
                for chunk in chunks
                if id(chunk) not in claimed and not all(done[i] for i, _ in chunk)
            )
        finally:
            if manager is not None:
                manager.shutdown()
        return RoundOutcome(retryable=retryable, fatal=fatal, lost=pool_lost)


# -- the multi-host backend --------------------------------------------


class _WorkerLink:
    """Coordinator-side state for one connected worker host."""

    __slots__ = (
        "worker_id",
        "sock",
        "send_lock",
        "last_seen",
        "soft_flagged",
        "chunk",
        "chunk_id",
        "chunks_done",
        "alive",
    )

    def __init__(self, worker_id: str, sock: socket.socket) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        # monotonic receipt times: beat *ages* are computed and
        # compared only inside the coordinator process
        self.last_seen = _time.monotonic()
        self.soft_flagged = False
        self.chunk: list | None = None
        self.chunk_id: int | None = None
        self.chunks_done = 0
        self.alive = True


class TcpCoordinator(Communicator):
    """Multi-host chunk transport over length-prefixed pickle frames.

    The coordinator owns a listening socket for the whole sweep; an
    accept thread admits workers at any time (one reader thread per
    link funnels frames into a single inbox queue, so
    :meth:`run_round` -- and therefore ``absorb``, the journal, and
    the telemetry sink -- runs entirely on the engine's thread).
    Each worker executes one chunk at a time; faster hosts simply ask
    more often, so heterogeneous fleets balance without tuning.
    """

    name = "tcp"

    def __init__(
        self,
        config: FabricConfig,
        watchdog: WatchdogConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.watchdog = watchdog if watchdog is not None else WatchdogConfig.from_env()
        self.metrics = metrics
        self.port: int | None = None
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._links: dict[str, _WorkerLink] = {}
        self._links_lock = threading.Lock()
        self._inbox: "queue.Queue[tuple[str, dict]]" = queue.Queue()
        self._joined = threading.Event()
        self._stopping = False

    # -- metrics helpers ----------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_workers(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("sim.fabric.workers_connected").set(float(self.worker_count))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._server is not None:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.config.bind_host, self.config.bind_port))
        server.listen(32)
        self._server = server
        self.port = server.getsockname()[1]
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True
        )
        self._accept_thread.start()
        emit_event(
            "fabric-started",
            kind="fabric-event",
            host=self.config.bind_host,
            port=self.port,
        )

    def stop(self) -> None:
        if self._server is None:
            return
        self._stopping = True
        with self._links_lock:
            links = list(self._links.values())
        for link in links:
            try:
                send_frame(link.sock, {"type": "shutdown"}, link.send_lock)
            except OSError:
                pass
            try:
                link.sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
        try:
            self._server.close()
        except OSError:  # pragma: no cover
            pass
        self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        emit_event("fabric-stopped", kind="fabric-event", workers=len(links))
        with self._links_lock:
            self._links.clear()
        self._gauge_workers()

    # -- worker admission ---------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        server = self._server
        while not self._stopping:
            try:
                sock, _addr = server.accept()
            except OSError:
                return  # listener closed: coordinator stopping
            threading.Thread(
                target=self._admit, args=(sock,), name="fabric-admit", daemon=True
            ).start()

    def _admit(self, sock: socket.socket) -> None:
        """Handshake one connection, register the link, start its reader."""
        try:
            sock.settimeout(10.0)
            hello = recv_frame(sock)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                sock.close()
                return
            sock.settimeout(None)
        except (OSError, ValueError, pickle.UnpicklingError):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return
        worker_id = str(hello.get("worker_id") or f"worker-{id(sock):x}")
        link = _WorkerLink(worker_id, sock)
        with self._links_lock:
            # a reconnecting id displaces its stale predecessor
            stale = self._links.pop(worker_id, None)
            self._links[worker_id] = link
        if stale is not None:
            try:
                stale.sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            send_frame(
                sock,
                {"type": "welcome", "cache_url": self.config.cache_url},
                link.send_lock,
            )
        except OSError:
            self._drop_link(link, "handshake-failed")
            return
        self._count("sim.fabric.workers_joined")
        self._gauge_workers()
        emit_event(
            "worker-joined",
            kind="fabric-event",
            worker=worker_id,
            host=hello.get("host"),
            pid=hello.get("pid"),
        )
        self._joined.set()
        threading.Thread(
            target=self._reader_loop,
            args=(link,),
            name=f"fabric-read-{worker_id}",
            daemon=True,
        ).start()

    def _reader_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                msg = recv_frame(link.sock)
            except (OSError, ValueError, pickle.UnpicklingError, EOFError):
                msg = None
            if msg is None:
                self._inbox.put((link.worker_id, {"type": "gone"}))
                return
            link.last_seen = _time.monotonic()
            if isinstance(msg, dict) and msg.get("type") != "heartbeat":
                self._inbox.put((link.worker_id, msg))

    def wait_for_workers(self, min_workers: int | None = None, wait_s: float | None = None) -> int:
        """Block until ``min_workers`` links exist or ``wait_s`` runs
        out; returns however many are connected either way."""
        target = self.config.min_workers if min_workers is None else min_workers
        budget = self.config.wait_s if wait_s is None else wait_s
        deadline = _time.monotonic() + budget
        while self.worker_count < target:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                break
            self._joined.clear()
            self._joined.wait(timeout=min(remaining, 0.25))
        return self.worker_count

    @property
    def worker_count(self) -> int:
        with self._links_lock:
            return sum(1 for link in self._links.values() if link.alive)

    @property
    def healthy(self) -> bool:
        return self.worker_count > 0

    def describe(self) -> dict:
        return {
            "transport": self.name,
            "host": self.config.bind_host,
            "port": self.port,
            "workers": self.worker_count,
        }

    # -- failure containment ------------------------------------------

    def _drop_link(self, link: _WorkerLink, reason: str) -> list | None:
        """Remove a dead host; returns its orphaned chunk, if any."""
        with self._links_lock:
            current = self._links.get(link.worker_id)
            if current is link:
                del self._links[link.worker_id]
        link.alive = False
        try:
            # closing the socket is also the worker-side kill switch: a
            # busy worker notices on its next beat and exits rather
            # than finish a chunk nobody will accept
            link.sock.close()
        except OSError:  # pragma: no cover
            pass
        orphan, link.chunk, link.chunk_id = link.chunk, None, None
        self._count("sim.fabric.hosts_lost")
        self._gauge_workers()
        emit_event(
            "host-lost",
            kind="fabric-event",
            worker=link.worker_id,
            reason=reason,
            orphaned_points=len(orphan) if orphan else 0,
            chunks_done=link.chunks_done,
        )
        return orphan

    # -- the round -----------------------------------------------------

    def run_round(
        self,
        fn: Callable,
        chunks: list[list[tuple[int, object]]],
        absorb: Callable,
        done: Sequence[bool],
        trace_id: str | None = None,
    ) -> RoundOutcome:
        wd = self.watchdog
        pending: deque[tuple[int, list]] = deque(enumerate(chunks))
        retryable: list[list[tuple[int, object]]] = []
        fatal: list[list[tuple[int, object]]] = []
        busy: dict[str, _WorkerLink] = {}

        def dispatch() -> None:
            with self._links_lock:
                idle = [
                    link
                    for link in self._links.values()
                    if link.alive and link.chunk is None
                ]
            for link in idle:
                if not pending:
                    return
                chunk_id, chunk = pending.popleft()
                try:
                    send_frame(
                        link.sock,
                        {
                            "type": "chunk",
                            "chunk_id": chunk_id,
                            "fn": fn,
                            "chunk": list(chunk),
                            "trace_id": trace_id,
                        },
                        link.send_lock,
                    )
                except (OSError, ValueError, pickle.PicklingError):
                    pending.appendleft((chunk_id, chunk))
                    self._drop_link(link, "send-failed")
                    continue
                link.chunk = list(chunk)
                link.chunk_id = chunk_id
                link.soft_flagged = False
                busy[link.worker_id] = link
                self._count("sim.fabric.chunks_dispatched")

        def check_heartbeats() -> None:
            now = _time.monotonic()
            for worker_id, link in list(busy.items()):
                if not link.alive:
                    continue
                age = now - link.last_seen
                if age > wd.soft_timeout_s and not link.soft_flagged:
                    link.soft_flagged = True
                    self._count("sim.fabric.soft_timeouts")
                    emit_event(
                        "host-slow",
                        kind="fabric-event",
                        worker=worker_id,
                        beat_age_s=round(age, 3),
                    )
                if age > wd.hard_timeout_s:
                    self._count("sim.fabric.hard_timeouts")
                    emit_event(
                        "host-timeout",
                        kind="fabric-event",
                        worker=worker_id,
                        beat_age_s=round(age, 3),
                    )
                    orphan = self._drop_link(link, "heartbeat-timeout")
                    busy.pop(worker_id, None)
                    if orphan is not None:
                        retryable.append(orphan)
                        self._count("sim.fabric.requeued_chunks")

        while pending or busy:
            dispatch()
            if not busy and pending and self.worker_count == 0:
                break  # no one to give work to; the engine degrades
            try:
                worker_id, msg = self._inbox.get(timeout=wd.poll_s)
            except queue.Empty:
                check_heartbeats()
                continue
            link = busy.get(worker_id)
            kind = msg.get("type")
            if kind == "gone":
                with self._links_lock:
                    gone = self._links.get(worker_id)
                if gone is not None and gone.alive:
                    orphan = self._drop_link(gone, "connection-lost")
                    if orphan is not None:
                        retryable.append(orphan)
                        self._count("sim.fabric.requeued_chunks")
                busy.pop(worker_id, None)
            elif kind == "result" and link is not None and msg.get("chunk_id") == link.chunk_id:
                chunk = link.chunk
                link.chunk, link.chunk_id = None, None
                link.chunks_done += 1
                busy.pop(worker_id, None)
                try:
                    absorb(*msg["payload"])
                    self._count("sim.fabric.chunks_completed")
                    self._count("sim.fabric.points_remote", float(len(chunk or ())))
                except Exception:
                    self._count("sim.parallel.worker_failures")
                    fatal.append(chunk)  # type: ignore[arg-type]
            elif kind == "error" and link is not None and msg.get("chunk_id") == link.chunk_id:
                chunk = link.chunk
                link.chunk, link.chunk_id = None, None
                link.chunks_done += 1
                busy.pop(worker_id, None)
                self._count("sim.parallel.worker_failures")
                self._count("sim.fabric.chunk_errors")
                emit_event(
                    "chunk-error",
                    kind="fabric-event",
                    worker=worker_id,
                    error=str(msg.get("error"))[:200],
                )
                fatal.append(chunk)  # type: ignore[arg-type]
            check_heartbeats()

        # whatever never found a worker is retryable, not lost work
        retryable.extend(chunk for _, chunk in pending)
        lost = self.worker_count == 0
        return RoundOutcome(retryable=retryable, fatal=fatal, lost=lost)
