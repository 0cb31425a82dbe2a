"""The sweep fabric: the one coordinator every parallel sweep runs on.

The sweep engine (:mod:`repro.parallel.engine`) fans point chunks over
worker processes and absorbs ``(results, telemetry, spans)`` tuples
back.  :class:`TcpCoordinator` is the transport it does that
through, for one host or many: each worker serves one framed link
(:mod:`repro.parallel.worker`) and executes one chunk at a time, so
faster workers simply ask more often and a fleet of unequal hosts
load-balances itself.  Links come from two places:

- **Local workers.**  A round with no remote worker to run on forks
  ``min(jobs, chunks)`` workers, each serving one end of a
  ``socket.socketpair()``.  They live for that round and never write
  to stdout.  ``sweep --jobs N`` runs this way.
- **Remote workers.**  With a :class:`FabricConfig` the coordinator
  also listens on TCP, and ``repro-hypercube worker --connect
  HOST:PORT`` processes join at any time, mid-sweep included.  A
  fabric that loses its last remote worker (or never gains one)
  degrades by attaching local workers to the same coordinator.

One code path then handles every link:

- **Heartbeats.**  Every worker beats at the watchdog's ``poll_s``: a
  local worker is forked with it, and a remote one reads it from the
  ``welcome`` frame.  Every frame a worker sends refreshes its link's
  monotonic receipt time.  A busy link whose beat age passes the
  watchdog's soft timeout is flagged (``sim.resilience.soft_timeouts``,
  ``host-slow``); one past the hard timeout is hung
  (``sim.resilience.hung_chunks``, ``host-timeout``), and its link is
  dropped.
- **Dead-worker detection -> requeue.**  A vanished worker (crash,
  SIGKILL, OOM, network partition) surfaces as an EOF on its link's
  reader thread; the worker's in-flight chunk returns to the engine at
  once, and flows through the engine's one retry budget
  (:class:`~repro.parallel.resilience.RetryPolicy`), counted in rounds
  -- point indices are transport-agnostic, so a point that keeps
  crashing workers runs in-process once the budget is spent, however
  many hosts it has hopped.
- **Dropping a link** closes it, which makes a busy remote worker exit
  rather than burn a CPU on an abandoned chunk, and SIGKILLs and reaps
  a local worker, which a stopped or GIL-bound process could not do on
  its own.
- **Unpicklable chunks.**  Each chunk frame is pickled once, before a
  link is chosen; a chunk that does not serialize (a lambda, a
  closure) is fatal -- it runs in-process -- and costs no link.
- **Observability.**  Fleet decisions are ``sim.fabric.*`` metrics and
  ``kind="fabric-event"`` telemetry records, heartbeat decisions
  ``sim.resilience.*`` and ``kind="resilience-event"``, each also a
  trace instant while tracing, all through
  :func:`repro.obs.sink.emit_event`.  A healthy local sweep emits no
  event at all.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import socket
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import emit_event
from repro.parallel.resilience import WatchdogConfig
from repro.parallel.worker import (
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
    serve_local,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "FabricConfig",
    "TcpCoordinator",
    "recv_frame",
    "send_frame",
]


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
    """

    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    min_workers: int = 1
    wait_s: float = 15.0

    def __post_init__(self) -> None:
        if not 0 <= self.bind_port <= 65535:
            raise ValueError(f"bind_port must be in [0, 65535], got {self.bind_port}")
        if self.min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {self.min_workers}")
        # a negated comparison, so that NaN fails it too
        if not self.wait_s >= 0:
            raise ValueError(f"wait_s must be >= 0, got {self.wait_s}")


def _close(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it: on Linux a bare ``close()``
    does not wake a thread blocked in ``accept()`` or ``recv()`` on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer already went away
    sock.close()


@dataclass(eq=False, slots=True)
class _WorkerLink:
    """Coordinator-side state for one connected worker."""

    worker_id: str
    sock: socket.socket
    #: a local worker's process; ``None`` for a remote worker
    proc: multiprocessing.Process | None = None
    reader: threading.Thread | None = None
    #: monotonic receipt time of the last frame: beat *ages* are
    #: computed and compared only inside the coordinator process
    last_seen: float = field(default_factory=_time.monotonic)
    soft_flagged: bool = False
    chunk: list | None = None
    chunk_id: int | None = None
    chunks_done: int = 0
    alive: bool = True


class TcpCoordinator:
    """Chunk transport over length-prefixed pickle frames.

    Without a :class:`FabricConfig` the coordinator is local-only: every
    round runs on forked local workers.  With one, it owns a listening
    socket for the whole sweep and an accept thread admits remote
    workers at any time.  One reader thread per link funnels frames into
    a single inbox queue, so :meth:`run_round` -- and therefore
    ``absorb``, the point log, and the telemetry sink -- runs entirely on
    the engine's thread.
    """

    def __init__(
        self,
        config: FabricConfig | None = None,
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
        self._inbox: "queue.Queue[tuple[_WorkerLink, dict]]" = queue.Queue()
        self._joined = threading.Event()
        self._stopping = False
        self._local_ids = itertools.count()
        self._degraded = False

    # -- metrics helpers ----------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_workers(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("sim.fabric.workers_connected").set(float(self.worker_count))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Listen for remote workers; a no-op without a FabricConfig."""
        if self.config is None or self._server is not None:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.config.bind_host, self.config.bind_port))
        server.listen(32)
        self._server = server
        self.port = server.getsockname()[1]
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(server,), name="fabric-accept", daemon=True
        )
        self._accept_thread.start()
        emit_event(
            "fabric-started",
            kind="fabric-event",
            host=self.config.bind_host,
            port=self.port,
        )

    def stop(self) -> None:
        """Stop listening and shut every remote worker down; idempotent."""
        if self._server is None:
            return
        self._stopping = True  # before the listing below: _register checks it
        _close(self._server)
        self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._links_lock:
            links = list(self._links.values())
        for link in links:
            try:
                send_frame(link.sock, {"type": "shutdown"})
            except OSError:
                pass  # already gone; severing it below is all that is left
            self._sever(link)
        emit_event("fabric-stopped", kind="fabric-event", workers=len(links))
        self._gauge_workers()

    # -- worker admission ---------------------------------------------

    def _accept_loop(self, server: socket.socket) -> None:
        while not self._stopping:
            try:
                sock, _addr = server.accept()
            except OSError:
                return  # listener shut down: coordinator stopping
            threading.Thread(
                target=self._admit, args=(sock,), name="fabric-admit", daemon=True
            ).start()

    def _admit(self, sock: socket.socket) -> None:
        """Handshake one connection, then register the link."""
        try:
            sock.settimeout(10.0)
            hello = recv_frame(sock)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                raise ValueError("not a worker hello")
            sock.settimeout(None)
            send_frame(sock, {"type": "welcome", "beat_s": self.watchdog.poll_s})
        except (OSError, ValueError, pickle.UnpicklingError, EOFError):
            sock.close()
            return
        worker_id = str(hello.get("worker_id") or f"worker-{id(sock):x}")
        if not self._register(_WorkerLink(worker_id, sock)):
            sock.close()  # stop() has begun: the worker reads EOF and exits
            return
        self._degraded = False
        self._gauge_workers()
        emit_event(
            "worker-joined",
            kind="fabric-event",
            counter="sim.fabric.workers_joined",
            metrics=self.metrics,
            worker=worker_id,
            host=hello.get("host"),
            pid=hello.get("pid"),
        )
        self._joined.set()

    def _register(self, link: _WorkerLink) -> bool:
        """Add ``link`` and start its reader; False, with nothing added,
        once :meth:`stop` has begun, since it shuts down only the links
        it finds."""
        with self._links_lock:
            if self._stopping:
                return False
            stale = self._links.pop(link.worker_id, None)
            self._links[link.worker_id] = link
        if stale is not None:
            # a reconnecting id displaces its predecessor, whose reader
            # then reports it gone (requeueing any chunk it held)
            _close(stale.sock)
        link.reader = threading.Thread(
            target=self._reader_loop,
            args=(link,),
            name=f"fabric-read-{link.worker_id}",
            daemon=True,
        )
        link.reader.start()
        return True

    def _reader_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                msg = recv_frame(link.sock)
            except (OSError, ValueError, pickle.UnpicklingError, EOFError):
                msg = None
            if msg is None:
                if link.alive:
                    self._inbox.put((link, {"type": "gone"}))
                return
            link.last_seen = _time.monotonic()
            if isinstance(msg, dict) and msg.get("type") != "heartbeat":
                self._inbox.put((link, msg))

    def wait_for_workers(self, min_workers: int | None = None, wait_s: float | None = None) -> int:
        """Block until ``min_workers`` links exist or ``wait_s`` runs
        out; returns however many are connected either way."""
        target = self.config.min_workers if min_workers is None else min_workers
        budget = self.config.wait_s if wait_s is None else wait_s
        deadline = _time.monotonic() + budget
        while self.worker_count < target:
            remaining = deadline - _time.monotonic()
            if not remaining > 0:  # NaN included: Event.wait(nan) never blocks
                break
            self._joined.clear()
            self._joined.wait(timeout=min(remaining, 0.25))
        return self.worker_count

    @property
    def worker_count(self) -> int:
        with self._links_lock:
            return sum(1 for link in self._links.values() if link.alive)

    # -- local workers -------------------------------------------------

    def _attach_local(self, count: int) -> list[_WorkerLink]:
        """Fork ``count`` local workers for one round, each serving one
        end of a socketpair, and register their links."""
        if self.config is not None and not self._degraded:
            self._degraded = True
            emit_event(
                "fabric-degraded-local",
                kind="fabric-event",
                counter="sim.fabric.degraded_to_local",
                metrics=self.metrics,
                host=self.config.bind_host,
                port=self.port,
            )
        context = multiprocessing.get_context("fork")
        with self._links_lock:
            inherited = [link.sock for link in self._links.values()]
        if self._server is not None:
            inherited.append(self._server)
        links = []
        # fork every worker before any of their reader threads start
        for _ in range(count):
            worker_id = f"local-{next(self._local_ids)}"
            ours, theirs = socket.socketpair()
            proc = context.Process(
                target=serve_local,
                args=(theirs, inherited + [ours], worker_id, self.watchdog.poll_s),
                name=worker_id,
            )
            try:
                proc.start()
            except OSError:
                # out of processes or memory: the round runs on fewer
                self._count("sim.parallel.worker_failures")
                ours.close()
                break
            finally:
                theirs.close()
            inherited.append(ours)
            links.append(_WorkerLink(worker_id, ours, proc))
        for link in links:
            self._register(link)
        return links

    # -- failure containment ------------------------------------------

    def _sever(self, link: _WorkerLink) -> None:
        """Unregister ``link`` and close it, SIGKILLing and reaping a
        local worker first; its reader thread exits before this returns."""
        with self._links_lock:
            if self._links.get(link.worker_id) is link:
                del self._links[link.worker_id]
        link.alive = False
        if link.proc is not None:
            link.proc.kill()
            link.proc.join()
        _close(link.sock)
        if link.reader is not None and link.reader is not threading.current_thread():
            link.reader.join()

    def _drop_link(self, link: _WorkerLink, reason: str) -> list | None:
        """Sever a failed worker's link; returns its orphaned chunk, if any."""
        self._sever(link)
        orphan, link.chunk, link.chunk_id = link.chunk, None, None
        self._gauge_workers()
        emit_event(
            "host-lost",
            kind="fabric-event",
            counter="sim.fabric.hosts_lost",
            metrics=self.metrics,
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
        trace_id: str | None = None,
        jobs: int = 1,
    ) -> tuple[list, list]:
        """Execute one batch of chunks, absorbing completions inline;
        returns ``(retryable, fatal)`` chunks.

        ``retryable`` chunks failed for transport-level reasons (crashed,
        hung, or vanished workers, or no worker left to run them) and
        may be requeued under the retry budget; ``fatal`` chunks raised
        inside the point function or did not pickle (they go to
        in-process execution, where the error surfaces exactly as it
        would serially).  With no remote worker connected, the round
        forks ``min(jobs, chunks)`` local workers and reaps them before
        it returns.
        """
        wd = self.watchdog
        retryable: list[list[tuple[int, object]]] = []
        fatal: list[list[tuple[int, object]]] = []
        pending: deque[tuple[int, list, bytes]] = deque()
        for chunk_id, chunk in enumerate(chunks):
            try:
                frame = encode_frame(
                    {"type": "chunk", "chunk_id": chunk_id, "fn": fn, "chunk": chunk,
                     "trace_id": trace_id}
                )
            except Exception:
                # no worker can run what does not pickle, and no link is
                # at fault: the chunk runs in-process
                self._count("sim.parallel.worker_failures")
                fatal.append(chunk)
            else:
                pending.append((chunk_id, chunk, frame))
        busy: set[_WorkerLink] = set()

        def lose(link: _WorkerLink, reason: str) -> None:
            busy.discard(link)
            orphan = self._drop_link(link, reason)
            if orphan is not None:
                retryable.append(orphan)
                self._count("sim.parallel.worker_failures")
                self._count("sim.fabric.requeued_chunks")

        def dispatch() -> None:
            with self._links_lock:
                idle = [link for link in self._links.values() if link.alive and link.chunk is None]
            for link in idle:
                if not pending:
                    return
                chunk_id, chunk, frame = pending.popleft()
                try:
                    link.sock.sendall(frame)
                except OSError:
                    pending.appendleft((chunk_id, chunk, frame))
                    lose(link, "send-failed")
                    continue
                link.chunk, link.chunk_id = chunk, chunk_id
                link.soft_flagged = False
                busy.add(link)
                self._count("sim.fabric.chunks_dispatched")

        def check_heartbeats() -> None:
            now = _time.monotonic()
            for link in list(busy):
                age = now - link.last_seen
                if age > wd.soft_timeout_s and not link.soft_flagged:
                    link.soft_flagged = True
                    emit_event(
                        "host-slow",
                        kind="resilience-event",
                        counter="sim.resilience.soft_timeouts",
                        metrics=self.metrics,
                        worker=link.worker_id,
                        beat_age_s=round(age, 3),
                    )
                if age > wd.hard_timeout_s:
                    emit_event(
                        "host-timeout",
                        kind="resilience-event",
                        counter="sim.resilience.hung_chunks",
                        metrics=self.metrics,
                        worker=link.worker_id,
                        beat_age_s=round(age, 3),
                        hard_timeout_s=wd.hard_timeout_s,
                    )
                    lose(link, "heartbeat-timeout")

        local: list[_WorkerLink] = []
        if pending and not self.worker_count:
            local = self._attach_local(min(jobs, len(pending)))
        try:
            while pending or busy:
                dispatch()
                if not busy:
                    break  # work left but no worker to run it: the engine requeues
                try:
                    link, msg = self._inbox.get(timeout=wd.poll_s)
                except queue.Empty:
                    check_heartbeats()
                    continue
                kind = msg.get("type")
                if kind == "gone" and link.alive:
                    lose(link, "connection-lost")
                elif (
                    kind in ("result", "error")
                    and link in busy
                    and msg.get("chunk_id") == link.chunk_id
                ):
                    chunk = link.chunk
                    link.chunk, link.chunk_id = None, None
                    link.chunks_done += 1
                    busy.discard(link)
                    dispatch()  # the worker's next chunk goes out before this one is absorbed
                    if kind == "result":
                        try:
                            absorb(*msg["payload"])
                            self._count("sim.fabric.chunks_completed")
                            self._count("sim.fabric.points_remote", float(len(chunk)))
                        except Exception:
                            self._count("sim.parallel.worker_failures")
                            fatal.append(chunk)  # type: ignore[arg-type]
                    else:
                        self._count("sim.parallel.worker_failures")
                        emit_event(
                            "chunk-error",
                            kind="fabric-event",
                            counter="sim.fabric.chunk_errors",
                            metrics=self.metrics,
                            worker=link.worker_id,
                            error=str(msg.get("error"))[:200],
                        )
                        fatal.append(chunk)  # type: ignore[arg-type]
                check_heartbeats()
        finally:
            # local workers live for one round; a link still busy here
            # (the round was interrupted) holds a chunk nobody will absorb
            for link in [*local, *busy]:
                if link.alive:
                    self._sever(link)
        # whatever never found a worker is retryable, not lost work
        retryable.extend(chunk for _, chunk, _ in pending)
        return retryable, fatal
