"""The service application: router -> handlers -> planner -> repository.

Wires the HTTP layer (:mod:`repro.service.http`) to the planner
(:mod:`repro.service.planner`) behind admission control
(:mod:`repro.service.admission`), and adds the operational endpoints a
deployable service needs:

========================  ====================================================
``POST /v1/schedule``     step table for one multicast (cached, coalesced)
``POST /v1/verify``       structural + Definition-4 verification verdict
``POST /v1/simulate``     wormhole-simulation delay summary
``GET /health``           liveness + drain/degraded state (JSON)
``GET /metrics``          Prometheus text exposition of the registry
``GET /v1/usage``         per-client request/byte/cache-hit accounting
========================  ====================================================

``/health`` additionally reports ``degraded`` with a reason
(``"drain"`` or ``"overload"``) so load balancers can distinguish a
shutting-down instance from a saturated one.

Request deadlines: each planning request runs under ``asyncio.wait_for``
with the service default deadline, or the client's ``X-Deadline-Ms``
header if smaller; expiry returns ``504``.  Clients are identified by
the ``X-Client-Id`` header, falling back to the peer address.

``serve_async`` is the long-running entry point behind the ``serve``
CLI subcommand: it installs a SIGTERM handler that triggers graceful
drain (stop accepting, finish in-flight work, then exit cleanly).
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.obs.exporters import to_prometheus
from repro.obs.metrics import SERVICE_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.parallel.cache import ScheduleCache
from repro.service.admission import AdmissionConfig, AdmissionController, Rejected
from repro.service.http import HttpServer, Request, Response
from repro.service.planner import PlannerService, PlanResult
from repro.service.protocol import ProtocolError, encode_plan_response, parse_plan_request

__all__ = ["ServiceApp", "ServiceConfig", "ServiceThread", "serve_async"]


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything the ``serve`` subcommand can tune."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 4
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: default per-request deadline; ``X-Deadline-Ms`` can lower it.
    deadline_ms: float = 10_000.0
    #: seconds granted to in-flight requests during graceful drain.
    drain_grace_s: float = 5.0
    max_body_bytes: int = 1 << 20
    #: test/soak knob: artificial seconds added to every build.
    build_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        # negated comparisons, so that NaN fails them too
        if not self.deadline_ms > 0:
            raise ValueError(f"--deadline-ms must be positive, got {self.deadline_ms}")
        if not self.drain_grace_s >= 0:
            raise ValueError(f"--drain-grace-s must be >= 0, got {self.drain_grace_s}")


@dataclass(slots=True)
class _ClientUsage:
    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cache_hits: int = 0
    builds: int = 0
    rejected: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "cache_hits": self.cache_hits,
            "builds": self.builds,
            "rejected": self.rejected,
            "errors": self.errors,
        }


class ServiceApp:
    """Route and serve planning requests; owns planner + admission."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.planner = PlannerService(
            cache=ScheduleCache(metrics=self.metrics),
            metrics=self.metrics,
            max_workers=self.config.workers,
            build_delay_s=self.config.build_delay_s,
        )
        self.admission = AdmissionController(self.config.admission, self.metrics)
        self.server = HttpServer(
            self.handle,
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
        )
        # uptime is a *duration*: anchor it on the monotonic clock so a
        # wall-clock step (NTP, DST) can never make it jump or go
        # negative; the unix timestamp is kept for display only.
        self.started_at_unix = time.time()  # repro: lint-ok[REP002] display-only timestamp
        self._started_monotonic = time.monotonic()
        self._usage: dict[str, _ClientUsage] = {}
        plan = self._plan_endpoint
        self._routes: dict[tuple[str, str], Callable[[Request], Awaitable[Response]]] = {
            ("POST", "/v1/schedule"): lambda req: plan(req, "schedule"),
            ("POST", "/v1/verify"): lambda req: plan(req, "verify"),
            ("POST", "/v1/simulate"): lambda req: plan(req, "simulate"),
            ("GET", "/health"): self._health,
            ("GET", "/metrics"): self._metrics_endpoint,
            ("GET", "/v1/usage"): self._usage_endpoint,
        }

    # -- plumbing ------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> None:
        await self.server.start()

    async def drain(self) -> bool:
        """Graceful shutdown: drain HTTP, then the planner's builds."""
        clean = await self.server.drain(self.config.drain_grace_s)
        await self.planner.drain()
        return clean

    def _client_id(self, req: Request) -> str:
        return req.headers.get("x-client-id") or req.client.rsplit(":", 1)[0]

    def _usage_for(self, client: str) -> _ClientUsage:
        usage = self._usage.get(client)
        if usage is None:
            usage = self._usage[client] = _ClientUsage()
        return usage

    def _deadline_s(self, req: Request) -> float:
        deadline = self.config.deadline_ms
        raw = req.headers.get("x-deadline-ms")
        if raw is not None:
            try:
                requested = float(raw)
            except ValueError:
                raise ProtocolError(f"bad X-Deadline-Ms header {raw!r}") from None
            if requested > 0:
                deadline = min(deadline, requested)
        return deadline / 1000.0

    # -- dispatch ------------------------------------------------------

    async def handle(self, req: Request) -> Response:
        handler = self._routes.get((req.method, req.path))
        if handler is None:
            known_paths = {path for _, path in self._routes}
            if req.path in known_paths:
                return Response(status=405, payload={"error": f"method {req.method} not allowed"})
            return Response(status=404, payload={"error": f"no such endpoint {req.path}"})
        self.metrics.counter("sim.service.requests").inc()
        t0 = time.perf_counter()
        response = await handler(req)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.metrics.histogram(
            "sim.service.latency_ms", SERVICE_LATENCY_BUCKETS_MS
        ).observe(elapsed_ms)
        self.metrics.counter(f"sim.service.responses_{response.status // 100}xx").inc()
        return response

    async def _plan_endpoint(self, req: Request, kind: str) -> Response:
        client = self._client_id(req)
        usage = self._usage_for(client)
        usage.requests += 1
        usage.bytes_in += len(req.body)
        self.metrics.counter("sim.service.bytes_in").inc(len(req.body))
        if self.server.draining:
            usage.rejected += 1
            return Response(
                status=503,
                payload={"error": "draining"},
                headers={"Retry-After": "1"},
            )
        try:
            plan_req = parse_plan_request(req.json(), kind)
            deadline_s = self._deadline_s(req)
        except ProtocolError as exc:
            usage.errors += 1
            return Response(status=400, payload={"error": str(exc)})
        try:
            async with self.admission.slot(client):
                result: PlanResult = await asyncio.wait_for(
                    getattr(self.planner, kind)(plan_req), timeout=deadline_s
                )
        except Rejected as exc:
            usage.rejected += 1
            retry_after = max(1, int(-(-exc.retry_after_s // 1)))  # ceil, >= 1
            return Response(
                status=exc.status,
                payload={"error": exc.reason, "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": str(retry_after)},
            )
        except asyncio.TimeoutError:
            usage.errors += 1
            self.metrics.counter("sim.service.deadline_timeouts").inc()
            return Response(
                status=504,
                payload={"error": f"deadline of {deadline_s * 1e3:g} ms exceeded"},
            )
        if result.source == "cache":
            usage.cache_hits += 1
        else:
            usage.builds += 1
        body = encode_plan_response(plan_req, result.key, result.source, result.value)
        usage.bytes_out += len(body)
        self.metrics.counter("sim.service.bytes_out").inc(len(body))
        return Response(body=body)

    # -- operational endpoints -----------------------------------------

    def _uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def _degraded(self) -> tuple[bool, str | None]:
        """Whether the instance should be deprioritized, and why.

        ``"drain"`` means a deliberate shutdown is in progress;
        ``"overload"`` means admission is saturated (in-flight at its
        cap, or the queue past 80% of its limit).  Load balancers treat
        the two very differently -- drain never recovers, overload does
        -- so the reason travels with the flag.
        """
        if self.server.draining:
            return True, "drain"
        admission = self.config.admission
        if self.admission.inflight >= admission.max_inflight:
            return True, "overload"
        if admission.max_queue > 0 and self.admission.queued >= 0.8 * admission.max_queue:
            return True, "overload"
        return False, None

    async def _health(self, _req: Request) -> Response:
        degraded, reason = self._degraded()
        payload = {
            "status": "draining" if self.server.draining else "ok",
            "degraded": degraded,
            "uptime_s": round(self._uptime_s(), 3),
            "started_at_unix": round(self.started_at_unix, 3),
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "connections": self.server.connections,
            "cache_entries": len(self.planner.cache),
            "cache_hit_ratio": round(self.planner.cache.hit_ratio(), 6),
        }
        if reason is not None:
            payload["degraded_reason"] = reason
        return Response(payload=payload)

    async def _metrics_endpoint(self, _req: Request) -> Response:
        # surface repository effectiveness as first-class gauges so a
        # scraper needs no PromQL over raw counters
        cache = self.planner.cache
        self.metrics.gauge("sim.service.cache_hit_ratio").set(cache.hit_ratio())
        self.metrics.gauge("sim.service.cache_entries").set(float(len(cache)))
        self.metrics.gauge("sim.service.cache_bytes").set(float(cache.resident_bytes))
        self.metrics.gauge("sim.service.uptime_seconds").set(self._uptime_s())
        text = to_prometheus(self.metrics)
        return Response(body=text.encode("utf-8"), content_type="text/plain; version=0.0.4")

    async def _usage_endpoint(self, _req: Request) -> Response:
        return Response(
            payload={
                "uptime_s": round(self._uptime_s(), 3),
                "clients": {
                    client: usage.as_dict() for client, usage in sorted(self._usage.items())
                },
            }
        )


async def serve_async(
    config: ServiceConfig,
    ready: Callable[[ServiceApp], None] | None = None,
    stop_event: asyncio.Event | None = None,
) -> int:
    """Run the service until SIGTERM (or ``stop_event``), then drain.

    Returns the process exit code (0 for a clean drain).  ``ready`` is
    called with the started app -- the CLI prints the bound address,
    tests capture the port.
    """
    app = ServiceApp(config)
    await app.start()
    if ready is not None:
        ready(app)
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
        pass
    try:
        await stop.wait()
    finally:
        clean = await app.drain()
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    print(
        f"drained: {'clean' if clean else 'grace period expired'}, "
        f"{app.metrics.counter('sim.service.requests').value:g} request(s) served",
        file=sys.stderr,
    )
    return 0 if clean else 1


class ServiceThread:
    """Run a :class:`ServiceApp` on a dedicated event-loop thread.

    The in-process harness used by tests and the examples: ``start()``
    returns once the socket is bound (with the resolved port), ``stop()``
    drains and joins.  Usable as a context manager.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig(port=0)
        self.app: ServiceApp | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.app = ServiceApp(self.config)
            loop.run_until_complete(self.app.start())
        except BaseException as exc:  # surface bind errors to start()
            self._failure = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.app.drain())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError(f"service failed to start: {self._failure}") from self._failure
        if self.app is None:
            raise RuntimeError("service thread did not start in time")
        return self

    @property
    def host(self) -> str:
        assert self.app is not None
        return self.app.host

    @property
    def port(self) -> int:
        assert self.app is not None
        return self.app.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
