"""A minimal stdlib-only asyncio HTTP/1.1 server.

Just enough HTTP for a JSON planning service: request line + headers +
``Content-Length`` bodies in, status + headers + body out, keep-alive
by default (HTTP/1.1 semantics), no chunked encoding, no TLS.  The
point is zero new runtime dependencies -- the repo's contract since
PR 1 -- while still speaking a protocol every load balancer, curl, and
Prometheus scraper understands.

The server tracks its connection tasks and in-flight requests so
:meth:`HttpServer.drain` can implement graceful shutdown: stop
accepting, let in-flight requests finish (bounded by a grace period),
then cancel every remaining connection task and wait for each to
finish.  An idle keep-alive connection is closed, which sends what an
earlier response left buffered; one cut off inside a request is
aborted.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, urlsplit

__all__ = ["HttpError", "HttpServer", "Request", "Response", "STATUS_REASONS"]

STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard caps on the request head; a planning request is a few KB.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADERS = 100

#: How long closing a connection waits for the peer to read what is
#: still buffered before the connection is aborted.
CLOSE_TIMEOUT_S = 5.0


class HttpError(Exception):
    """A malformed request the connection loop answers directly."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes
    client: str  # "ip:port" of the peer

    def json(self) -> Any:
        """The body parsed as JSON; raises :class:`HttpError` (400)."""
        if not self.body:
            raise HttpError(400, "empty request body (expected JSON)")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass(slots=True)
class Response:
    """One HTTP response; exactly one of ``payload``/``body`` is used."""

    status: int = 200
    payload: Any = None  # JSON-serialized canonically when body is None
    body: bytes | None = None
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode_body(self) -> bytes:
        if self.body is not None:
            return self.body
        from repro.service.protocol import encode_json

        return encode_json(self.payload)


Handler = Callable[[Request], Awaitable[Response]]


async def _read_head(reader: asyncio.StreamReader) -> tuple[str, str, str, dict[str, str]]:
    """Read and parse the request line and headers."""
    line = await reader.readline()
    if not line:
        raise asyncio.IncompleteReadError(b"", None)  # peer closed between requests
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version}")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(400, "too many headers")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


def _encode_response(resp: Response, *, keep_alive: bool) -> bytes:
    body = resp.encode_body()
    reason = STATUS_REASONS.get(resp.status, "Unknown")
    head = [
        f"HTTP/1.1 {resp.status} {reason}",
        f"Content-Type: {resp.content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in resp.headers.items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class HttpServer:
    """Serve ``handler`` over HTTP/1.1 with keep-alive and drain support."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        # resolve the actual port for ``port=0`` (tests, CI, parallel soaks)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def connections(self) -> int:
        return len(self._connections)

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
        raw = headers.get("content-length", "0")
        try:
            length = int(raw)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {raw!r}") from None
        if length < 0:
            raise HttpError(400, f"bad Content-Length {raw!r}")
        if length > self.max_body_bytes:
            raise HttpError(413, f"body of {length} bytes exceeds {self.max_body_bytes}")
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise HttpError(400, "chunked request bodies are not supported")
        return await reader.readexactly(length) if length else b""

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve a new connection on a task of its own, held until it
        finishes so :meth:`drain` can cancel and await it."""
        task = asyncio.get_running_loop().create_task(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        in_request = False
        try:
            while True:
                try:
                    method, target, version, headers = await _read_head(reader)
                    body = await self._read_body(reader, headers)
                except HttpError as exc:
                    writer.write(
                        _encode_response(
                            Response(status=exc.status, payload={"error": exc.reason}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                split = urlsplit(target)
                request = Request(
                    method=method.upper(),
                    path=split.path,
                    query=dict(parse_qsl(split.query)),
                    headers=headers,
                    body=body,
                    client=client,
                )
                wants_close = (
                    headers.get("connection", "").lower() == "close"
                    or version == "HTTP/1.0"
                )
                keep_alive = not wants_close and not self._draining
                self._inflight += 1
                self._idle.clear()
                in_request = True
                try:
                    try:
                        response = await self.handler(request)
                    except HttpError as exc:
                        response = Response(status=exc.status, payload={"error": exc.reason})
                    except Exception as exc:  # never leak a traceback as a hang
                        response = Response(
                            status=500, payload={"error": f"internal error: {exc}"}
                        )
                    writer.write(_encode_response(response, keep_alive=keep_alive))
                    await writer.drain()
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                in_request = False
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # peer went away; nothing to answer
        except asyncio.CancelledError:
            if in_request:
                writer.transport.abort()  # cut off by drain: drop the partial response
            raise
        finally:
            writer.close()  # sends whatever is still buffered first
            try:
                await asyncio.wait_for(writer.wait_closed(), CLOSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                writer.transport.abort()  # the peer stopped reading
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def drain(self, grace_s: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Connections still open after the grace period -- idle keep-alive
        ones, or ones whose request outlived it -- are cancelled, and
        drain returns once every connection task has finished and the
        server has closed.

        Returns True when all in-flight requests finished within the
        grace period, False when lingering work was cut off.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting
        clean = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=grace_s)
        except asyncio.TimeoutError:
            clean = False
        lingering = list(self._connections)
        for task in lingering:
            task.cancel()
        await asyncio.gather(*lingering, return_exceptions=True)
        if self._server is not None:
            # since Python 3.12.1 this also waits for every connection
            # to close, so it must come after the connections are gone
            await self._server.wait_closed()
        return clean
