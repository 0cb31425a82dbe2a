"""Load generator for the schedule-planning service.

A stdlib-only async client that drives ``/v1/*`` endpoints over
keep-alive HTTP/1.1 connections and reports the numbers the CI
``service-smoke`` job gates on: sustained req/s, p50/p99 latency,
and observed cache hit ratio.

Workload shape is configurable along the two axes that matter for a
caching service:

* **Arrival process** -- ``closed`` (each worker fires its next request
  the moment the previous completes; measures capacity) or ``poisson``
  (exponential think time targeting an aggregate arrival rate;
  measures behaviour at a fixed offered load).

* **Destination-set skew** -- requests draw from a pool of
  destination sets (:func:`repro.analysis.workloads.random_destination_sets`)
  under a Zipf distribution with parameter ``skew``; ``skew=0`` is
  uniform, larger values concentrate traffic on a few hot keys the way
  real collective workloads revisit the same communicator shapes.

Latencies are recorded into a bounded-memory
:class:`~repro.obs.metrics.Histogram`, so arbitrarily long soaks cost
O(1) memory; quantiles come from :meth:`Histogram.quantile` (bucket
upper bounds -- conservative for SLO gates).

The client is a polite citizen of an overloaded service: a 429 is not
a failure but a scheduling hint -- the worker sleeps out the server's
wait (the body's exact ``retry_after_s``, else ``Retry-After``;
jittered, capped) and re-offers the same request -- and a connection
reset or refused connect is retried up to ``retries`` times under
jittered exponential backoff before it counts as an error.  Both
behaviours are what the resilience docs (docs/RESILIENCE.md) prescribe
for fleet clients generally.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import random
import sys
import time
from dataclasses import dataclass, field

from repro.analysis.workloads import random_destination_sets
from repro.obs.metrics import SERVICE_LATENCY_BUCKETS_MS, Histogram
from repro.obs.sink import RotatingJsonlSink
from repro.obs.telemetry import RunRecord, new_run_id

__all__ = ["LoadConfig", "LoadSummary", "run_load", "run_load_sync", "main"]


@dataclass(frozen=True, slots=True)
class LoadConfig:
    """One load run against a running service."""

    host: str = "127.0.0.1"
    port: int = 8421
    endpoint: str = "schedule"  # schedule | verify | simulate
    requests: int = 1000
    concurrency: int = 8
    #: arrival process: "closed" or "poisson".
    arrival: str = "closed"
    #: aggregate target arrival rate (req/s) for the poisson process.
    rate: float = 500.0
    #: key-pool shape: cube dimension, destinations per set, pool size.
    n: int = 6
    m: int = 8
    keys: int = 16
    #: Zipf skew over the key pool; 0 = uniform.
    skew: float = 1.1
    algorithm: str = "wsort"
    seed: int = 20260808
    client_id: str = "loadgen"
    deadline_ms: float | None = None
    #: transport-error / 429 retries per request before giving up.
    retries: int = 2
    #: first backoff delay for transport retries (doubles per attempt,
    #: jittered); also the fallback wait for a 429 that names no wait.
    backoff_s: float = 0.05
    #: ceiling on any single retry sleep (guards a hostile Retry-After).
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.endpoint not in ("schedule", "verify", "simulate"):
            raise ValueError(f"unknown endpoint {self.endpoint!r}")
        if self.arrival not in ("closed", "poisson"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if not 1 <= self.m < (1 << self.n):
            raise ValueError(f"m={self.m} invalid for an {self.n}-cube")
        if self.keys < 1:
            raise ValueError(f"keys must be >= 1, got {self.keys}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s <= 0:
            raise ValueError(f"backoff_s must be positive, got {self.backoff_s}")
        if self.max_backoff_s < self.backoff_s:
            raise ValueError(
                f"max_backoff_s {self.max_backoff_s} below backoff_s {self.backoff_s}"
            )


@dataclass(slots=True)
class LoadSummary:
    """What one load run measured."""

    requests: int = 0
    ok: int = 0
    cache_hits: int = 0
    builds: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    errors: int = 0
    #: transport failures retried (reset/refused that did not become errors).
    retried: int = 0
    #: 429 responses waited out per the server's Retry-After and re-offered.
    throttled: int = 0
    wall_seconds: float = 0.0
    latency: Histogram = field(
        default_factory=lambda: Histogram("loadgen.latency_ms", SERVICE_LATENCY_BUCKETS_MS)
    )

    @property
    def rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def hit_ratio(self) -> float:
        answered = self.cache_hits + self.builds
        return self.cache_hits / answered if answered else 0.0

    @property
    def p50_ms(self) -> float:
        return self.latency.quantile(0.50)

    @property
    def p99_ms(self) -> float:
        return self.latency.quantile(0.99)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "retried": self.retried,
            "throttled": self.throttled,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "cache_hits": self.cache_hits,
            "builds": self.builds,
            "hit_ratio": round(self.hit_ratio, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "rps": round(self.rps, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "max_ms": round(self.latency.max, 4),
        }


class _ZipfPicker:
    """Zipf-skewed choice over ``count`` ranks (rank 0 hottest)."""

    def __init__(self, count: int, skew: float, rng: random.Random) -> None:
        weights = [1.0 / (rank + 1) ** skew for rank in range(count)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._rng = rng

    def pick(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random())


class _Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough HTTP."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def request(
        self, method: str, path: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; reconnects once if the server closed on us."""
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            assert self._reader is not None and self._writer is not None
            head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
            head += [f"{k}: {v}" for k, v in headers.items()]
            head.append(f"Content-Length: {len(body)}")
            self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            try:
                await self._writer.drain()
                return await self._read_response()
            except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
                # stale keep-alive connection; reconnect and retry once
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _read_response(self) -> tuple[int, dict[str, str], bytes]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        resp_headers: dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        if resp_headers.get("connection", "").lower() == "close":
            await self.close()
        return status, resp_headers, body


def _request_bodies(config: LoadConfig) -> list[bytes]:
    """Pre-encoded request bodies, one per key in the pool."""
    dest_sets = random_destination_sets(config.n, config.m, config.keys, config.seed)
    bodies = []
    for dests in dest_sets:
        doc = {
            "algorithm": config.algorithm,
            "n": config.n,
            "source": 0,
            "destinations": dests,
        }
        bodies.append(json.dumps(doc).encode("utf-8"))
    return bodies


def _retry_after(headers: dict[str, str], body: bytes, fallback: float) -> float:
    """Seconds a throttled request waits before it is re-offered: the
    body's exact ``retry_after_s``, else the ``Retry-After`` header
    (whole seconds, rounded up), else ``fallback``."""
    try:
        return float(json.loads(body)["retry_after_s"])
    except (ValueError, KeyError, TypeError):
        pass
    try:
        return float(headers.get("retry-after", ""))
    except ValueError:
        return fallback


async def run_load(
    config: LoadConfig,
    telemetry: RotatingJsonlSink | None = None,
) -> LoadSummary:
    """Drive the configured load and return the measured summary."""
    bodies = _request_bodies(config)
    rng = random.Random(config.seed ^ 0x5EED)
    picker = _ZipfPicker(config.keys, config.skew, rng)
    path = f"/v1/{config.endpoint}"
    headers = {"X-Client-Id": config.client_id}
    if config.deadline_ms is not None:
        headers["X-Deadline-Ms"] = f"{config.deadline_ms:g}"
    summary = LoadSummary()
    run_id = new_run_id()  # one id joins every record of this load run
    remaining = config.requests
    # mean think time per worker for the aggregate poisson target rate
    think_mean = config.concurrency / config.rate if config.arrival == "poisson" else 0.0
    started = time.perf_counter()

    async def worker(worker_id: int) -> None:
        nonlocal remaining
        conn = _Connection(config.host, config.port)
        wrng = random.Random((config.seed << 8) ^ worker_id)
        try:
            while remaining > 0:
                remaining -= 1
                if think_mean > 0.0:
                    await asyncio.sleep(wrng.expovariate(1.0 / think_mean))
                body = bodies[picker.pick()]
                attempts = 0
                while True:
                    t0 = time.perf_counter()
                    try:
                        status, resp_headers, resp_body = await conn.request(
                            "POST", path, body, headers
                        )
                    except OSError:
                        # reset/refused mid-burst: back off (jittered,
                        # doubling) and re-offer rather than fail hard --
                        # a restarting or draining server is not an error
                        # until the budget is spent.
                        if attempts >= config.retries:
                            summary.errors += 1
                            break
                        attempts += 1
                        summary.retried += 1
                        pause = min(
                            config.backoff_s * (2 ** (attempts - 1)), config.max_backoff_s
                        )
                        await asyncio.sleep(wrng.uniform(0.0, pause))
                        continue
                    elapsed_ms = (time.perf_counter() - t0) * 1e3
                    summary.requests += 1
                    summary.latency.observe(elapsed_ms)
                    summary.statuses[status] = summary.statuses.get(status, 0) + 1
                    source = None
                    if status == 200:
                        summary.ok += 1
                        source = json.loads(resp_body).get("source")
                        if source == "cache":
                            summary.cache_hits += 1
                        elif source == "build":
                            summary.builds += 1
                    if telemetry is not None:
                        telemetry.write(
                            RunRecord(
                                run_id=run_id,
                                kind="service-request",
                                n=config.n,
                                algorithm=config.algorithm,
                                wall_seconds=elapsed_ms / 1e3,
                                extra={
                                    "t_s": round(time.perf_counter() - started, 6),
                                    "worker": worker_id,
                                    "endpoint": config.endpoint,
                                    "status": status,
                                    "latency_ms": round(elapsed_ms, 4),
                                    "source": source,
                                    "attempt": attempts,
                                },
                            )
                        )
                    if status == 429 and attempts < config.retries:
                        # the server said when to come back; believe it
                        # (capped), add jitter so throttled workers do
                        # not re-arrive in lockstep.
                        attempts += 1
                        summary.throttled += 1
                        retry_after = _retry_after(resp_headers, resp_body, config.backoff_s)
                        pause = min(max(retry_after, 0.0), config.max_backoff_s)
                        await asyncio.sleep(pause + wrng.uniform(0.0, config.backoff_s))
                        continue
                    break
        finally:
            await conn.close()

    await asyncio.gather(*(worker(i) for i in range(config.concurrency)))
    summary.wall_seconds = time.perf_counter() - started
    return summary


def run_load_sync(config: LoadConfig, telemetry: RotatingJsonlSink | None = None) -> LoadSummary:
    """Blocking wrapper around :func:`run_load` (own event loop)."""
    return asyncio.run(run_load(config, telemetry))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.service.loadgen``.

    Exit codes follow the repo contract: 0 on success (gates pass),
    1 when a ``--min-hit-ratio`` / ``--max-p99-ms`` gate fails, 2 on
    bad arguments.
    """
    parser = argparse.ArgumentParser(
        prog="repro-loadgen", description="drive load at the schedule-planning service"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--endpoint", choices=("schedule", "verify", "simulate"), default="schedule"
    )
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--arrival", choices=("closed", "poisson"), default="closed")
    parser.add_argument("--rate", type=float, default=500.0, help="poisson target req/s")
    parser.add_argument("--n", type=int, default=6, help="cube dimension")
    parser.add_argument("--m", type=int, default=8, help="destinations per request")
    parser.add_argument("--keys", type=int, default=16, help="distinct key pool size")
    parser.add_argument("--skew", type=float, default=1.1, help="zipf skew (0=uniform)")
    parser.add_argument("--algorithm", default="wsort")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--client-id", default="loadgen")
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument(
        "--retries", type=int, default=2, help="transport/429 retries per request"
    )
    parser.add_argument(
        "--backoff-s", type=float, default=0.05, help="initial retry backoff seconds"
    )
    parser.add_argument("--telemetry", default=None, help="JSONL telemetry path (rotated+gzipped)")
    parser.add_argument(
        "--telemetry-max-bytes", type=int, default=1 << 20, help="rotation threshold"
    )
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    parser.add_argument("--min-hit-ratio", type=float, default=None, help="gate: fail below this")
    parser.add_argument("--max-p99-ms", type=float, default=None, help="gate: fail above this")
    args = parser.parse_args(argv)
    try:
        config = LoadConfig(
            host=args.host,
            port=args.port,
            endpoint=args.endpoint,
            requests=args.requests,
            concurrency=args.concurrency,
            arrival=args.arrival,
            rate=args.rate,
            n=args.n,
            m=args.m,
            keys=args.keys,
            skew=args.skew,
            algorithm=args.algorithm,
            seed=args.seed,
            client_id=args.client_id,
            deadline_ms=args.deadline_ms,
            retries=args.retries,
            backoff_s=args.backoff_s,
        )
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    telemetry = (
        RotatingJsonlSink(args.telemetry, max_bytes=args.telemetry_max_bytes)
        if args.telemetry
        else None
    )
    try:
        summary = run_load_sync(config, telemetry)
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{summary.requests} requests in {summary.wall_seconds:.2f}s "
            f"({summary.rps:.0f} req/s), p50 {summary.p50_ms:.2f} ms, "
            f"p99 {summary.p99_ms:.2f} ms, hit ratio {summary.hit_ratio:.3f}, "
            f"{summary.errors} transport error(s), {summary.retried} retried, "
            f"{summary.throttled} throttled"
        )
    failed = []
    if args.min_hit_ratio is not None and summary.hit_ratio < args.min_hit_ratio:
        failed.append(f"hit ratio {summary.hit_ratio:.3f} < {args.min_hit_ratio}")
    if args.max_p99_ms is not None and summary.p99_ms > args.max_p99_ms:
        failed.append(f"p99 {summary.p99_ms:.2f} ms > {args.max_p99_ms} ms")
    if summary.ok == 0:
        failed.append("no successful responses")
    for reason in failed:
        print(f"gate failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
