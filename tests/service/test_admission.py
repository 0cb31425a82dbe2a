"""Tests for admission control: caps, queueing, rate limits."""

from __future__ import annotations

import asyncio
from collections import OrderedDict

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.admission import (
    MAX_CLIENTS,
    AdmissionConfig,
    AdmissionController,
    Rejected,
    TokenBucket,
    client_state,
)


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        wait = bucket.try_take(0.0)
        assert wait == pytest.approx(1.0)

    def test_tokens_accrue_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, now=0.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        assert bucket.try_take(1.0) == 0.0  # 2 tokens accrued, capped at 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestClientState:
    def test_keeps_the_most_recently_seen_clients(self):
        table = OrderedDict()
        for i in range(MAX_CLIENTS):
            client_state(table, f"c{i}", list)
        client_state(table, "c0", list)  # seen again: now the most recent
        for i in range(MAX_CLIENTS, MAX_CLIENTS + 10):
            client_state(table, f"c{i}", list)
        assert len(table) == MAX_CLIENTS
        assert "c0" in table
        assert [f"c{i}" in table for i in range(1, 12)] == [False] * 10 + [True]


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=-1)

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"rate_per_client": -1.0}, "rate_per_client must be positive"),
            ({"rate_per_client": 0.0}, "rate_per_client must be positive"),
            ({"rate_per_client": float("nan")}, "rate_per_client must be positive"),
            ({"rate_per_client": 1.0, "burst": -5.0}, "burst must be >= 1"),
            ({"burst": 0.5}, "burst must be >= 1"),
            ({"retry_after_s": 0.0}, "retry_after_s must be positive"),
        ],
        ids=[
            "negative-rate", "zero-rate", "nan-rate", "negative-burst", "fractional-burst",
            "zero-retry",
        ],
    )
    def test_rejects_values_the_token_bucket_or_503_cannot_use(self, over, message):
        """Checked when the service is configured, not on a client's
        first rate-limited request (which would answer it with a 500)."""
        with pytest.raises(ValueError, match=message):
            AdmissionConfig(**over)


def _controller(**over) -> AdmissionController:
    return AdmissionController(AdmissionConfig(**over), MetricsRegistry())


class TestAdmissionController:
    def test_admits_under_cap(self):
        async def scenario():
            ctl = _controller(max_inflight=2)
            async with ctl.slot("a"):
                async with ctl.slot("b"):
                    assert ctl.inflight == 2
            assert ctl.inflight == 0

        asyncio.run(scenario())

    def test_queues_then_hands_slot_over(self):
        async def scenario():
            ctl = _controller(max_inflight=1, max_queue=4)
            order: list[str] = []

            async def holder(name: str, gate: asyncio.Event):
                async with ctl.slot(name):
                    order.append(name)
                    await gate.wait()

            gate_a = asyncio.Event()
            gate_b = asyncio.Event()
            task_a = asyncio.ensure_future(holder("a", gate_a))
            await asyncio.sleep(0.01)
            task_b = asyncio.ensure_future(holder("b", gate_b))
            await asyncio.sleep(0.01)
            assert order == ["a"]
            assert ctl.queued == 1
            gate_a.set()
            gate_b.set()
            await asyncio.gather(task_a, task_b)
            assert order == ["a", "b"]
            assert ctl.inflight == 0
            assert ctl.queued == 0

        asyncio.run(scenario())

    def test_full_queue_rejects_503(self):
        async def scenario():
            ctl = _controller(max_inflight=1, max_queue=0, retry_after_s=2.0)
            gate = asyncio.Event()

            async def holder():
                async with ctl.slot("a"):
                    await gate.wait()

            task = asyncio.ensure_future(holder())
            await asyncio.sleep(0.01)
            with pytest.raises(Rejected) as exc_info:
                async with ctl.slot("b"):
                    pass
            assert exc_info.value.status == 503
            assert exc_info.value.retry_after_s == 2.0
            gate.set()
            await task

        asyncio.run(scenario())

    def test_rate_limit_rejects_429_per_client(self):
        async def scenario():
            ctl = _controller(rate_per_client=1.0, burst=2.0)
            for _ in range(2):
                async with ctl.slot("hot"):
                    pass
            with pytest.raises(Rejected) as exc_info:
                async with ctl.slot("hot"):
                    pass
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after_s > 0.0
            # a different client has its own bucket
            async with ctl.slot("cold"):
                pass

        asyncio.run(scenario())

    def test_token_buckets_are_bounded_and_an_evicted_client_starts_full(self):
        async def scenario():
            # one token each, and none accrues during the test
            ctl = _controller(rate_per_client=1e-9, burst=1.0)
            for i in range(MAX_CLIENTS + 100):
                async with ctl.slot(f"client-{i}"):
                    pass
            assert len(ctl._buckets) == MAX_CLIENTS
            with pytest.raises(Rejected):  # still tracked: its bucket is empty
                async with ctl.slot(f"client-{MAX_CLIENTS + 99}"):
                    pass
            async with ctl.slot("client-0"):  # evicted: a new, full bucket
                pass

        asyncio.run(scenario())

    def test_cancelled_waiter_does_not_leak_slot(self):
        async def scenario():
            ctl = _controller(max_inflight=1, max_queue=4)
            gate = asyncio.Event()

            async def holder():
                async with ctl.slot("a"):
                    await gate.wait()

            async def waiter():
                async with ctl.slot("b"):
                    pass

            hold_task = asyncio.ensure_future(holder())
            await asyncio.sleep(0.01)
            wait_task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0.01)
            wait_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await wait_task
            gate.set()
            await hold_task
            assert ctl.inflight == 0
            # capacity fully restored: a fresh request admits instantly
            async with ctl.slot("c"):
                assert ctl.inflight == 1

        asyncio.run(scenario())

    def test_metrics_track_rejections(self):
        async def scenario():
            registry = MetricsRegistry()
            ctl = AdmissionController(
                AdmissionConfig(rate_per_client=1.0, burst=1.0), registry
            )
            async with ctl.slot("x"):
                pass
            with pytest.raises(Rejected):
                async with ctl.slot("x"):
                    pass
            assert registry.counter("sim.service.rejected_rate").value == 1.0

        asyncio.run(scenario())
