"""Tests for the single-flight planner: coalescing, caching, errors."""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import ScheduleCache, schedule_table_key
from repro.service import planner
from repro.service.planner import PlannerService
from repro.service.protocol import parse_plan_request

DOC = {"algorithm": "wsort", "n": 6, "source": 0, "destinations": [1, 3, 5, 9, 17, 33]}


def _boom(req):
    """A build that fails in its worker."""
    raise RuntimeError("kaput")


def _planner(**over) -> tuple[PlannerService, MetricsRegistry]:
    registry = MetricsRegistry()
    svc = PlannerService(cache=ScheduleCache(), metrics=registry, **over)
    return svc, registry


class TestCoalescing:
    def test_64_concurrent_identical_requests_build_once(self, slow_builds):
        """The headline property: N identical in-flight requests perform
        exactly one build, and every caller serializes byte-identically."""
        slow_builds(0.05)

        async def scenario():
            svc, registry = _planner(max_workers=2)
            req = parse_plan_request(DOC, "schedule")
            try:
                results = await asyncio.gather(*(svc.schedule(req) for _ in range(64)))
            finally:
                svc.close()
            return results, registry

        results, registry = asyncio.run(scenario())
        assert registry.counter("sim.service.builds").value == 1.0
        assert registry.counter("sim.service.coalesced").value == 63.0
        bodies = {r.value for r in results}
        assert len(bodies) == 1
        assert len({id(r.value) for r in results}) == 1  # one shared bytes object
        assert all(r.source == "build" for r in results)
        keys = {r.key for r in results}
        assert len(keys) == 1

    def test_distinct_keys_do_not_coalesce(self, slow_builds):
        slow_builds(0.02)

        async def scenario():
            svc, registry = _planner()
            req_a = parse_plan_request(DOC, "schedule")
            req_b = parse_plan_request(dict(DOC, destinations=[2, 4, 6]), "schedule")
            try:
                await asyncio.gather(svc.schedule(req_a), svc.schedule(req_b))
            finally:
                svc.close()
            return registry

        registry = asyncio.run(scenario())
        assert registry.counter("sim.service.builds").value == 2.0
        assert registry.counter("sim.service.coalesced").value == 0.0

    def test_waiter_cancellation_does_not_kill_the_build(self, slow_builds):
        slow_builds(0.05)

        async def scenario():
            svc, registry = _planner()
            req = parse_plan_request(DOC, "schedule")
            try:
                follower = asyncio.ensure_future(svc.schedule(req))
                victim = asyncio.ensure_future(svc.schedule(req))
                await asyncio.sleep(0.01)
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                result = await follower
            finally:
                svc.close()
            return result, registry

        result, registry = asyncio.run(scenario())
        assert result.value  # the surviving waiter got the built value
        assert registry.counter("sim.service.builds").value == 1.0
        assert registry.counter("sim.service.build_errors").value == 0.0

    def test_inflight_empties_after_builds(self, slow_builds):
        slow_builds(0.01)

        async def scenario():
            svc, _ = _planner()
            req = parse_plan_request(DOC, "schedule")
            try:
                await asyncio.gather(*(svc.schedule(req) for _ in range(4)))
                await asyncio.sleep(0)  # let done callbacks run
                return svc.inflight_builds()
            finally:
                svc.close()

        assert asyncio.run(scenario()) == 0


class TestDrain:
    def test_drain_drops_queued_builds_and_waits_for_running_ones(
        self, slow_builds, monkeypatch, tmp_path
    ):
        """Once their waiters are gone, drain cancels the builds: one
        queued behind the only worker never starts, and the running one
        has finished when drain returns.  The worker is another process,
        so each build leaves a marker file."""
        slow_builds(0.2)
        build = planner.compute_schedule_table

        def mark(event):
            os.close(tempfile.mkstemp(prefix=f"{event}-", dir=tmp_path)[0])

        def counted(*args):
            mark("started")
            value = build(*args)
            mark("finished")
            return value

        def started():
            return list(tmp_path.glob("started-*"))

        def finished():
            return list(tmp_path.glob("finished-*"))

        monkeypatch.setattr(planner, "compute_schedule_table", counted)

        async def scenario():
            svc, _ = _planner(max_workers=1)
            req_a = parse_plan_request(DOC, "schedule")
            req_b = parse_plan_request(dict(DOC, destinations=[2, 4, 6]), "schedule")
            waiters = [asyncio.ensure_future(svc.schedule(r)) for r in (req_a, req_b)]
            while not started():  # the first build holds the worker
                await asyncio.sleep(0.01)
            for waiter in waiters:  # as an HTTP drain cancels its connections
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            await svc.drain()
            return svc.inflight_builds()

        assert asyncio.run(scenario()) == 0
        assert len(started()) == 1
        assert len(finished()) == 1

    def test_drain_keeps_the_event_loop_running(self, slow_builds):
        """Waiting for a running build does not block the event loop: a
        ticker task keeps ticking while drain waits for the build."""
        slow_builds(0.5)

        async def scenario():
            svc, _ = _planner(max_workers=1)
            waiter = asyncio.ensure_future(svc.schedule(parse_plan_request(DOC, "schedule")))
            await asyncio.sleep(0.05)  # the build is now running
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            ticks = 0

            async def tick():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            ticker = asyncio.ensure_future(tick())
            await svc.drain()
            ticker.cancel()
            await asyncio.gather(ticker, return_exceptions=True)
            return ticks

        assert asyncio.run(scenario()) >= 5


    def test_an_older_planner_closes_while_a_newer_one_is_open(self):
        """The workers forked for a newer planner hold no pipe of an
        older one, so closing the older one does not wait for them."""
        older = PlannerService(max_workers=1)
        newer = PlannerService(max_workers=1)
        closing = threading.Thread(target=older.close, daemon=True)
        closing.start()
        closing.join(timeout=10)
        try:
            assert not closing.is_alive()
        finally:
            newer.close()


class TestCacheIntegration:
    def test_second_round_is_cache_sourced(self):
        async def scenario():
            svc, registry = _planner()
            req = parse_plan_request(DOC, "schedule")
            try:
                first = await svc.schedule(req)
                second = await svc.schedule(req)
            finally:
                svc.close()
            return first, second, registry

        first, second, registry = asyncio.run(scenario())
        assert first.source == "build"
        assert second.source == "cache"
        assert first.value == second.value
        assert registry.counter("sim.service.builds").value == 1.0

    def test_service_addresses_the_sweep_cache_entries(self):
        """A cache warmed through the key and compute functions serves
        the service without a rebuild."""
        from repro.core.paths import ResolutionOrder
        from repro.multicast.ports import ALL_PORT
        from repro.parallel.cache import compute_schedule_table

        cache = ScheduleCache()
        args = ("wsort", 6, 0, sorted(DOC["destinations"]), ALL_PORT, ResolutionOrder.DESCENDING)
        cache.put(schedule_table_key(*args), compute_schedule_table(*args))

        async def scenario():
            registry = MetricsRegistry()
            svc = PlannerService(cache=cache, metrics=registry)
            req = parse_plan_request(DOC, "schedule")
            try:
                return await svc.schedule(req), registry
            finally:
                svc.close()

        result, registry = asyncio.run(scenario())
        assert result.source == "cache"
        assert registry.counter("sim.service.builds").value == 0.0
        assert result.key == schedule_table_key(
            "wsort", 6, 0, tuple(sorted(DOC["destinations"])),
            ALL_PORT, ResolutionOrder.DESCENDING,
        )


class TestVerifyAndSimulate:
    def test_verify_reports_ok(self):
        async def scenario():
            svc, _ = _planner()
            req = parse_plan_request(DOC, "verify")
            try:
                return await svc.verify(req)
            finally:
                svc.close()

        verdict = json.loads(asyncio.run(scenario()).value)
        assert verdict["ok"] is True
        assert verdict["errors"] == []
        assert verdict["max_step"] >= 1

    def test_simulate_returns_delay_stats(self):
        async def scenario():
            svc, _ = _planner()
            req = parse_plan_request(dict(DOC, size=4096), "simulate")
            try:
                return await svc.simulate(req)
            finally:
                svc.close()

        stats = json.loads(asyncio.run(scenario()).value)
        assert set(stats) >= {"avg_delay_us", "max_delay_us"}


class TestBuildErrors:
    def test_build_error_propagates_and_counts(self):
        async def scenario():
            svc, registry = _planner()
            req = parse_plan_request(DOC, "schedule")
            try:
                with pytest.raises(RuntimeError, match="kaput"):
                    await svc._resolve("deadbeef", _boom, req)
                await asyncio.sleep(0)
            finally:
                svc.close()
            return registry, svc

        registry, svc = asyncio.run(scenario())
        assert registry.counter("sim.service.build_errors").value == 1.0
        assert svc.inflight_builds() == 0
        assert svc.cache.get("deadbeef") is None  # failures are not cached
