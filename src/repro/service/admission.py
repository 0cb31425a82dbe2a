"""Admission control: in-flight caps, a bounded queue, per-client rate limits.

A long-lived planning service fails differently from a batch sweep: the
danger is not a wrong answer but an unbounded backlog.  This module is
the front door that keeps the backlog bounded:

* a hard cap on *admitted* (in-flight) requests;
* a bounded FIFO wait queue in front of that cap -- requests past the
  queue bound are rejected immediately with ``503`` rather than parked
  forever;
* an optional per-client token bucket -- clients above their rate get
  ``429`` with a computed ``Retry-After``.

Per-client state is kept for the :data:`MAX_CLIENTS` most recently seen
clients (:func:`client_state`), so clients that make up a new id per
request cannot grow it without bound.

Rejections raise :exc:`Rejected`, which carries exactly what the HTTP
layer needs (status, reason, retry-after seconds).  Everything here is
event-loop-local: no locks, because all state is touched from the
single asyncio thread.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import AsyncIterator, Callable, TypeVar

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MAX_CLIENTS",
    "AdmissionConfig",
    "AdmissionController",
    "Rejected",
    "TokenBucket",
    "client_state",
]

#: clients whose state (token bucket, usage counters) a service keeps
MAX_CLIENTS = 4096

_State = TypeVar("_State")


def client_state(
    table: OrderedDict[str, _State], client: str, new: Callable[[], _State]
) -> _State:
    """``client``'s entry in ``table``, made by ``new()`` on first sight,
    and now its most recently seen.

    A new entry past :data:`MAX_CLIENTS` evicts the least recently seen
    client, which comes back, if it does, as a new client (with a full
    token bucket and zeroed usage).
    """
    state = table.get(client)
    if state is None:
        state = table[client] = new()
        if len(table) > MAX_CLIENTS:
            table.popitem(last=False)
    else:
        table.move_to_end(client)
    return state


class Rejected(Exception):
    """A request turned away at admission (rate limit or capacity)."""

    def __init__(self, status: int, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/s, capacity ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float | None = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = time.monotonic() if now is None else now

    def try_take(self, now: float | None = None) -> float:
        """Take one token; returns 0.0 on success, else seconds until
        one accrues (the ``Retry-After`` hint)."""
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Knobs of the admission controller (all per service instance)."""

    #: concurrently admitted requests; beyond this, requests queue.
    max_inflight: int = 64
    #: waiters allowed in front of the in-flight cap; beyond this, 503.
    max_queue: int = 128
    #: per-client sustained request rate (req/s); ``None`` disables.
    rate_per_client: float | None = None
    #: per-client burst allowance (token bucket capacity).
    burst: float = 20.0
    #: ``Retry-After`` seconds suggested on a 503 capacity rejection.
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        # negated comparisons, so that NaN fails them too
        if self.rate_per_client is not None and not self.rate_per_client > 0:
            raise ValueError(f"rate_per_client must be positive, got {self.rate_per_client}")
        if not self.burst >= 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if not self.retry_after_s > 0:
            raise ValueError(f"retry_after_s must be positive, got {self.retry_after_s}")


class AdmissionController:
    """Gate requests through the config's caps; all asyncio-thread-local."""

    def __init__(self, config: AdmissionConfig, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics
        self.inflight = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    @property
    def queued(self) -> int:
        return sum(1 for fut in self._waiters if not fut.done())

    def _check_rate(self, client: str) -> None:
        rate = self.config.rate_per_client
        if rate is None:
            return
        bucket = client_state(
            self._buckets, client, lambda: TokenBucket(rate, self.config.burst)
        )
        wait = bucket.try_take()
        if wait > 0.0:
            self.metrics.counter("sim.service.rejected_rate").inc()
            raise Rejected(429, f"client {client!r} over {rate:g} req/s", wait)

    async def _acquire(self, client: str) -> None:
        self._check_rate(client)
        if self.inflight < self.config.max_inflight:
            self.inflight += 1
            self.metrics.gauge("sim.service.inflight").set(self.inflight)
            return
        if self.queued >= self.config.max_queue:
            self.metrics.counter("sim.service.rejected_capacity").inc()
            raise Rejected(
                503,
                f"at capacity ({self.config.max_inflight} in flight, "
                f"{self.config.max_queue} queued)",
                self.config.retry_after_s,
            )
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        self.metrics.gauge("sim.service.queue_depth").set(self.queued)
        try:
            await fut  # resolved by _release with the slot pre-claimed
        except asyncio.CancelledError:
            # deadline fired while queued; if the slot was already
            # handed to us, pass it on instead of leaking it
            if fut.done() and not fut.cancelled():
                self._release()
            raise
        finally:
            self.metrics.gauge("sim.service.queue_depth").set(self.queued)

    def _release(self) -> None:
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                # hand the slot straight over: inflight stays constant
                fut.set_result(None)
                return
        self.inflight -= 1
        self.metrics.gauge("sim.service.inflight").set(self.inflight)

    @asynccontextmanager
    async def slot(self, client: str) -> AsyncIterator[None]:
        """``async with controller.slot(client):`` -- admit or reject."""
        await self._acquire(client)
        try:
            yield
        finally:
            self._release()
