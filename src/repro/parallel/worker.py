"""The sweep worker: every parallel sweep point runs in one of these.

A worker serves one framed link to a
:class:`~repro.parallel.fabric.TcpCoordinator` through :func:`serve`:
it executes the coordinator's chunks one at a time with
:func:`run_chunk`, which buffers telemetry and span snapshots and
ships them home in the result frame.  Workers come from two places,
and both run the same loop:

- **Local workers** (``sweep --jobs N``): the coordinator forks them
  for one dispatch round, each on one end of a ``socket.socketpair()``
  (:func:`serve_local`).  They never write to stdout.
- **Remote workers**: ``repro-hypercube worker --connect HOST:PORT``
  (:func:`run_worker`) dials the coordinator over TCP, handshakes, and
  then serves until shutdown.  Scale out by starting more of them --
  on this host or any host that can reach the coordinator.

Liveness is a dedicated heartbeat thread that beats at the one interval
the coordinator sets (its watchdog's ``poll_s``: passed to a forked
worker, sent to a remote one as the ``welcome`` frame's ``beat_s``),
since the coordinator alone compares beat ages.  Its rule encodes the
slow-vs-hung distinction: a beat is sent only while the worker is
*idle* or while chunk execution has made *progress* (another point
started) since the last beat.  A worker whose point function is
wedged therefore goes silent, the coordinator's hard timeout fires,
and the chunk is requeued -- without any clock agreement between
processes, because the coordinator only measures receive-to-receive
gaps on its own monotonic clock.

The coordinator's liveness matters too: if a beat cannot be sent while
a chunk is running, the coordinator is gone and nobody will accept the
result, so the worker exits hard (:data:`ORPHANED_EXIT`) rather than
burn a host on orphaned work.  An idle worker notices the same thing
as EOF on its blocking read and exits.

The wire protocol (:func:`send_frame` / :func:`recv_frame`) is
length-prefixed pickle over a trusted network -- the same trust model
as :mod:`multiprocessing` itself, documented in docs/RESILIENCE.md.
Results cross the wire as the exact objects the point function
returned (pickle round-trips them bit-identically), which is what
makes a parallel sweep byte-identical to a serial one.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import socket
import struct
import threading
import time
import traceback
from typing import Callable, Sequence

from repro.obs import sink as _sink_mod
from repro.obs import trace_spans
from repro.obs.sink import MemorySink

__all__ = [
    "MAX_FRAME_BYTES",
    "ORPHANED_EXIT",
    "encode_frame",
    "recv_frame",
    "run_chunk",
    "run_worker",
    "send_frame",
    "serve",
    "serve_local",
]

#: Exit code for a worker that abandoned a chunk because its
#: coordinator vanished mid-execution (distinct from 1, a clean
#: connection loss while idle, so process supervisors can tell lost
#: work from a finished fleet).
ORPHANED_EXIT = 70

#: Chunk payloads are small (a function reference plus primitive
#: specs); anything past this is a protocol error, not a sweep.
MAX_FRAME_BYTES = 64 << 20

_LEN = struct.Struct(">Q")


# -- the frame protocol ----------------------------------------------------


def encode_frame(payload: object) -> bytes:
    """Pickle ``payload`` into one length-prefixed frame.

    Raises whatever pickling raises for an unpicklable payload, and
    :class:`ValueError` for one past :data:`MAX_FRAME_BYTES`.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(blob)) + blob


def send_frame(sock: socket.socket, payload: object, lock: threading.Lock | None = None) -> None:
    """Write one length-prefixed pickled frame to ``sock``.

    ``lock`` serializes concurrent senders on a shared socket (a
    worker's main loop and its heartbeat thread).
    """
    data = encode_frame(payload)
    if lock is None:
        sock.sendall(data)
        return
    with lock:
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


# -- one chunk -------------------------------------------------------------


def run_chunk(
    fn: Callable,
    chunk: Sequence[tuple[int, object]],
    chunk_id: int | None = None,
    progress: Callable[[], None] | None = None,
    trace_id: str | None = None,
) -> tuple[list[tuple[int, object]], list[dict], dict | None]:
    """Execute one chunk of (index, spec) pairs inside a worker.

    Telemetry is buffered in a :class:`MemorySink` (never written
    directly from the worker -- a dead worker must not leave partial or
    duplicate records).  ``progress`` is called before every point; the
    heartbeat thread turns it into the beat/no-beat
    decision that tells a slow chunk from a hung one.  When the parent
    is tracing (``trace_id``), the worker runs its own tracer -- seeded
    from the parent's trace id, the chunk id, and the worker pid so
    span ids never collide across chunks -- and ships the span snapshot
    home in the return tuple for replay, exactly like the telemetry
    buffer.
    """
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
    try:
        results = []
        for index, spec in chunk:
            if progress is not None:
                progress()
            results.append((index, fn(spec)))
    finally:
        if worker_tracer is not None:
            if chunk_span is not None:
                worker_tracer.end_span(chunk_span)
            trace_spans.configure_tracing(prev_tracer)
        _sink_mod.configure(prev_sink)
    trace_snapshot = worker_tracer.snapshot() if worker_tracer is not None else None
    return results, [r.to_dict() for r in buffer.records], trace_snapshot


# -- the serve loop --------------------------------------------------------


def _link_dead(sock: socket.socket) -> bool:
    """Whether the coordinator closed the link, without consuming data.

    Used while a chunk is running (the main thread is not reading): a
    readable socket whose peek returns EOF is a dead link.  A pending
    frame (a shutdown broadcast) peeks as data and is left for the main
    loop.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
        if not readable:
            return False
        return sock.recv(1, socket.MSG_PEEK) == b""
    except (OSError, ValueError):
        return True


def serve(
    sock: socket.socket,
    worker_id: str,
    beat_s: float,
    log: Callable[[str], None] = lambda _message: None,
) -> int:
    """Execute the coordinator's chunks over ``sock`` until shutdown.

    Returns ``0`` after an orderly shutdown frame and ``1`` when the
    link closes while idle; a worker orphaned mid-chunk does not return
    (it is :func:`os._exit` with :data:`ORPHANED_EXIT`).  ``log``
    receives one line per lifecycle event (remote workers print them).
    """
    send_lock = threading.Lock()
    busy = threading.Event()
    stopping = threading.Event()
    points = 0

    def progress() -> None:
        nonlocal points
        points += 1

    def beat_loop() -> None:
        last_progress = points
        while not stopping.wait(beat_s):
            current = points
            executing = busy.is_set()
            if executing and current == last_progress:
                # wedged point: go silent so the coordinator's hard
                # timeout decides -- but if it already dropped us, the
                # chunk is orphaned and this worker should come back
                if not stopping.is_set() and _link_dead(sock):
                    log(f"worker {worker_id}: dropped by coordinator mid-chunk")
                    os._exit(ORPHANED_EXIT)
                continue
            last_progress = current
            try:
                send_frame(sock, {"type": "heartbeat"}, send_lock)
            except OSError:
                if stopping.is_set():
                    return
                if executing:
                    # nobody will accept this chunk's result; don't
                    # finish it -- release the worker immediately
                    log(f"worker {worker_id}: coordinator lost mid-chunk")
                    os._exit(ORPHANED_EXIT)
                return

    threading.Thread(target=beat_loop, name="worker-beat", daemon=True).start()
    chunks_done = 0
    try:
        while True:
            try:
                msg = recv_frame(sock)
            except (OSError, ValueError):
                msg = None
            if msg is None:
                log(f"worker {worker_id}: connection closed ({chunks_done} chunks)")
                return 1
            kind = msg.get("type") if isinstance(msg, dict) else None
            if kind == "shutdown":
                log(f"worker {worker_id}: shutdown ({chunks_done} chunks)")
                return 0
            if kind != "chunk":
                continue  # unknown frame: a newer coordinator's extension
            chunk_id = msg.get("chunk_id")
            busy.set()
            try:
                payload = run_chunk(
                    msg["fn"], msg["chunk"], chunk_id, progress, msg.get("trace_id")
                )
                reply = encode_frame({"type": "result", "chunk_id": chunk_id, "payload": payload})
            except BaseException:
                # the point function raised, or its results do not
                # pickle: either way the chunk is the coordinator's to
                # rerun in-process, where the error surfaces as serially
                reply = encode_frame(
                    {"type": "error", "chunk_id": chunk_id, "error": traceback.format_exc(limit=20)}
                )
            else:
                chunks_done += 1
            finally:
                busy.clear()
            try:
                with send_lock:
                    sock.sendall(reply)
            except OSError:
                log(f"worker {worker_id}: coordinator lost sending chunk {chunk_id}")
                return 1
    finally:
        stopping.set()
        sock.close()


def serve_local(
    sock: socket.socket,
    inherited: list[socket.socket],
    worker_id: str,
    beat_s: float,
) -> None:
    """Fork target of a local worker: serve one socketpair end.

    Closes the coordinator's sockets the fork copied (``inherited``),
    so a dead coordinator's links read EOF rather than stay open in a
    sibling.
    """
    for other in inherited:
        other.close()
    serve(sock, worker_id, beat_s)


# -- remote workers --------------------------------------------------------


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ValueError(f"expected HOST:PORT, got {endpoint!r}")
    return host, int(port)


def _connect(host: str, port: int, timeout_s: float) -> socket.socket | None:
    """Dial the coordinator, retrying with a short fixed delay until
    ``timeout_s`` runs out (workers routinely start before it)."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.2)


def _say(message: str) -> None:
    print(message, flush=True)


def run_worker(
    connect: str,
    label: str | None = None,
    connect_timeout_s: float = 30.0,
) -> int:
    """Connect, handshake, and :func:`serve` one coordinator link at
    the ``beat_s`` its welcome sets; returns the exit code.

    ``0``: coordinator sent an orderly shutdown.  ``1``: could not
    connect, a bad handshake (no welcome frame, or a ``beat_s`` that is
    not a positive finite number), or the connection closed while idle.  The
    orphaned-chunk path does not return -- it is :func:`os._exit` with
    :data:`ORPHANED_EXIT`.
    """
    host, port = _parse_endpoint(connect)
    sock = _connect(host, port, connect_timeout_s)
    if sock is None:
        _say(f"worker: no coordinator at {connect} after {connect_timeout_s:.0f}s")
        return 1
    worker_id = label or f"{socket.gethostname()}-{os.getpid()}"
    try:
        send_frame(
            sock,
            {"type": "hello", "worker_id": worker_id, "host": socket.gethostname(),
             "pid": os.getpid()},
        )
        welcome = recv_frame(sock)
    except (OSError, ValueError, pickle.UnpicklingError, EOFError):
        welcome = None  # the peer hung up, or is no coordinator
    welcomed = isinstance(welcome, dict) and welcome.get("type") == "welcome"
    beat_s = welcome.get("beat_s") if welcomed else None
    # NaN fails the comparison too; a zero beat would spin
    if not isinstance(beat_s, (int, float)) or not 0 < beat_s < math.inf:
        sock.close()
        _say(f"worker: bad handshake from {connect} (beat_s {beat_s!r})")
        return 1
    _say(f"worker {worker_id}: serving {connect}")
    return serve(sock, worker_id, beat_s, log=_say)
