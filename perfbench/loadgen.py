"""Closed- and open-loop HTTP load from one process over ≤ 2 connections.

Each connection is a blocking keep-alive socket driven by its own
thread.  Threads pace with ``time.sleep``, which sleeps to the
nanosecond clock; an event loop's timer wakes on millisecond
granularity and would add its own lateness to every open-loop sample.

Every request keeps its raw timestamps -- due, sent, done -- so the
percentiles computed from them are exact, and the generator's own
lateness (sent minus the later of due time and the moment a connection
was free) is reported beside them.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Sequence


class Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length bodies only)."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        status_line = self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = self._reader.read(length)
        if len(payload) != length:
            raise ConnectionError("short response body")
        return status, payload

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


@dataclass(frozen=True, slots=True)
class Call:
    """One request to send: endpoint path and JSON body."""

    path: str
    body: bytes


@dataclass(slots=True)
class Samples:
    """Raw per-request timestamps (perf_counter seconds) and outcomes.

    Index ``i`` of every list belongs to request ``i`` of the input;
    requests never sent (a closed loop that ran out of time) keep
    ``None`` in ``status`` and are not part of :meth:`sent`.
    """

    due: list[float | None]
    sent: list[float | None]
    done: list[float | None]
    lag: list[float | None]
    status: list[int | None]
    body: list[bytes | None]
    errors: list[str] = field(default_factory=list)

    @classmethod
    def empty(cls, count: int) -> "Samples":
        return cls(*([None] * count for _ in range(6)))

    @classmethod
    def concat(cls, parts: Sequence["Samples"]) -> "Samples":
        """Consecutive parts of one input, as one; index ``i`` keeps
        meaning request ``i`` of the whole input."""
        out = cls.empty(0)
        for part in parts:
            for f in fields(cls):
                getattr(out, f.name).extend(getattr(part, f.name))
        return out

    def busy_s(self) -> float:
        """First send to last response answered 200, in seconds (0 when
        none was)."""
        ok = self.ok_indices()
        if not ok:
            return 0.0
        return max(self.done[i] for i in ok) - min(self.sent[i] for i in self.sent_indices())

    def sent_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.sent) if t is not None]

    def ok_indices(self) -> list[int]:
        """Requests answered 200."""
        return [i for i, status in enumerate(self.status) if status == 200]

    def latencies_ms(self, indices: Sequence[int], from_due: bool) -> list[float]:
        """Latency of each completed request, from due or from send."""
        out = []
        for i in indices:
            if self.done[i] is None:
                continue
            start = self.due[i] if from_due else self.sent[i]
            out.append((self.done[i] - start) * 1e3)
        return out


def _drive(host: str, port: int, calls: Sequence[Call], samples: Samples,
           next_index, clients: int) -> None:
    """Run ``clients`` threads, each on its own connection, pulling
    request indices from ``next_index`` until it returns ``None``."""
    conns = [Connection(host, port) for _ in range(clients)]

    def worker(conn: Connection) -> None:
        broken = False
        while True:
            free_at = time.perf_counter()
            i = next_index()
            if i is None:
                return
            due = samples.due[i]
            if due is not None and due > free_at:
                time.sleep(max(0.0, due - time.perf_counter()))
            sent = time.perf_counter()
            samples.sent[i] = sent
            samples.lag[i] = sent - max(due, free_at) if due is not None else sent - free_at
            call = calls[i]
            if broken:
                samples.errors.append(f"{call.path}: connection lost earlier")
                continue
            try:
                status, payload = conn.request("POST", call.path, call.body)
            except (OSError, ValueError) as exc:
                samples.errors.append(f"{call.path}: {type(exc).__name__}: {exc}")
                broken = True
                continue
            samples.done[i] = time.perf_counter()
            samples.status[i] = status
            samples.body[i] = payload

    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in conns]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for c in conns:
            c.close()


def closed_loop(host: str, port: int, calls: Sequence[Call], clients: int,
                seconds: float, min_requests: int) -> Samples:
    """Each client sends its next request when the previous completes.

    Stops taking new requests once ``seconds`` have passed *and*
    ``min_requests`` were sent, or when ``calls`` runs out.
    """
    samples = Samples.empty(len(calls))
    lock = threading.Lock()
    state = {"next": 0}
    start = time.perf_counter()

    def next_index() -> int | None:
        with lock:
            i = state["next"]
            if i >= len(calls):
                return None
            if i >= min_requests and time.perf_counter() - start >= seconds:
                return None
            state["next"] = i + 1
            return i

    _drive(host, port, calls, samples, next_index, clients)
    return samples


def open_loop(host: str, port: int, calls: Sequence[Call], offsets_s: Sequence[float],
              connections: int) -> Samples:
    """Send ``calls[i]`` at ``start + offsets_s[i]`` regardless of
    completions (offsets ascending).  A request whose connection is
    still busy at its due time waits in FIFO order, and that wait
    counts in its latency, which is timed from the due time."""
    samples = Samples.empty(len(calls))
    lock = threading.Lock()
    state = {"next": 0}
    start = time.perf_counter() + 0.01
    samples.due[:] = [start + off for off in offsets_s]

    def next_index() -> int | None:
        with lock:
            i = state["next"]
            if i >= len(calls):
                return None
            state["next"] = i + 1
            return i

    _drive(host, port, calls, samples, next_index, connections)
    return samples
