"""End-to-end service tests over real loopback sockets.

Covers the full layering (HTTP parse -> routing -> admission ->
planner -> cache), the golden parity of service responses against
direct library calls for fig-9/fig-11-style points, HTTP-level
coalescing, deadlines, degraded health, and graceful drain.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import http.client
import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.workloads import random_destination_sets
from repro.parallel import cache as cache_module
from repro.parallel.cache import (
    canonical_json,
    compute_delay_stats,
    compute_schedule_table,
    schedule_table_key,
)
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT
from repro.service import AdmissionConfig, ServiceConfig, ServiceThread
from repro.simulator.params import NCUBE2


@pytest.fixture(scope="module")
def service():
    with ServiceThread(ServiceConfig(port=0)) as svc:
        yield svc


def _post(svc, path, doc, headers=None, timeout=30):
    req = urllib.request.Request(
        f"http://{svc.host}:{svc.port}{path}",
        data=json.dumps(doc).encode(),
        method="POST",
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(svc, path):
    try:
        with urllib.request.urlopen(f"http://{svc.host}:{svc.port}{path}", timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


DOC = {"algorithm": "wsort", "n": 5, "source": 0, "destinations": [1, 2, 3, 9, 17]}


class TestEndpoints:
    def test_schedule_round_trip(self, service):
        status, body, _ = _post(service, "/v1/schedule", DOC)
        assert status == 200
        assert body["source"] in ("build", "cache")
        assert body["request"]["m"] == 5
        status2, body2, _ = _post(service, "/v1/schedule", DOC)
        assert status2 == 200
        assert body2["source"] == "cache"
        assert body2["result"] == body["result"]

    def test_verify_round_trip(self, service):
        status, body, _ = _post(service, "/v1/verify", DOC)
        assert status == 200
        assert body["result"]["ok"] is True

    def test_simulate_round_trip(self, service):
        status, body, _ = _post(service, "/v1/simulate", dict(DOC, size=4096))
        assert status == 200
        assert body["result"]["avg_delay_us"] > 0

    def test_health(self, service):
        status, raw = _get(service, "/health")
        doc = json.loads(raw)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["cache_entries"] >= 1

    def test_metrics_prometheus_text_parses(self, service):
        _post(service, "/v1/schedule", DOC)  # ensure some traffic exists
        status, raw = _get(service, "/metrics")
        assert status == 200
        text = raw.decode()
        samples = {}
        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("#"):
                assert line.startswith(("# HELP", "# TYPE"))
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)  # every sample line parses
        assert samples["repro_sim_service_requests"] >= 1
        assert 0.0 <= samples["repro_sim_service_cache_hit_ratio"] <= 1.0

    def test_usage_accounting(self, service):
        _post(service, "/v1/schedule", DOC, headers={"X-Client-Id": "usage-test"})
        _post(service, "/v1/schedule", DOC, headers={"X-Client-Id": "usage-test"})
        status, raw = _get(service, "/v1/usage")
        doc = json.loads(raw)
        assert status == 200
        usage = doc["clients"]["usage-test"]
        assert usage["requests"] >= 2
        assert usage["cache_hits"] >= 1
        assert usage["bytes_in"] > 0
        assert usage["bytes_out"] > 0


class TestErrors:
    def test_unknown_path_404(self, service):
        status, _ = _get(service, "/nope")
        assert status == 404

    def test_wrong_method_405(self, service):
        status, _ = _get(service, "/v1/schedule")
        assert status == 405

    def test_bad_body_400(self, service):
        status, body, _ = _post(service, "/v1/schedule", {"n": 99, "destinations": [1]})
        assert status == 400
        assert "must be in" in body["error"]

    def test_invalid_json_400(self, service):
        req = urllib.request.Request(
            f"http://{service.host}:{service.port}/v1/schedule",
            data=b"{torn", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        exc_info.value.close()  # the error is the open 400 response
        assert exc_info.value.code == 400

    def test_oversized_body_413(self, service):
        big = json.dumps(dict(DOC, padding="x" * ((1 << 20) + 1024))).encode()
        req = urllib.request.Request(
            f"http://{service.host}:{service.port}/v1/schedule",
            data=big, method="POST",
        )
        # the server answers 413 from the headers alone and closes; the
        # client may observe either the response or the early close
        try:
            urllib.request.urlopen(req, timeout=30)
            outcome = 200
        except urllib.error.HTTPError as exc:
            exc.close()
            outcome = exc.code
        except (urllib.error.URLError, ConnectionError):
            outcome = "closed"
        assert outcome in (413, "closed")

    def test_bad_deadline_header_400(self, service):
        status, body, _ = _post(
            service, "/v1/schedule", DOC, headers={"X-Deadline-Ms": "soon"}
        )
        assert status == 400
        assert "X-Deadline-Ms" in body["error"]

    def test_cache_put_cannot_forge_a_schedule(self, service):
        """No route writes the planner's cache: a PUT of a forged table
        under a schedule request's key, with a matching checksum, is a
        404, and the request is then answered by a fresh build."""
        dests = [3, 12, 22, 29]
        doc = {"algorithm": "wsort", "n": 5, "source": 0, "destinations": dests}
        key = schedule_table_key("wsort", 5, 0, dests, ALL_PORT, ResolutionOrder.DESCENDING)
        forged = {"max_step": 1, "dest_steps": {str(d): 1 for d in dests}}
        checksum = hashlib.sha256(canonical_json(forged)).hexdigest()[:16]
        envelope = {"key": key, "checksum": checksum, "value": forged}
        req = urllib.request.Request(
            f"http://{service.host}:{service.port}/v1/cache/{key}",
            data=json.dumps(envelope).encode(), method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        exc_info.value.close()  # the error is the open 404 response
        assert exc_info.value.code == 404
        status, body, _ = _post(service, "/v1/schedule", doc)
        assert status == 200
        assert body["source"] == "build"
        expected = compute_schedule_table(
            "wsort", 5, 0, dests, ALL_PORT, ResolutionOrder.DESCENDING
        )
        assert body["result"] == json.loads(json.dumps(expected))


def _metric_samples(svc) -> dict[str, float]:
    status, raw = _get(svc, "/metrics")
    assert status == 200
    return {
        name: float(value)
        for name, value in (
            line.rsplit(" ", 1) for line in raw.decode().splitlines() if not line.startswith("#")
        )
    }


class TestBoundedCache:
    def test_cache_bytes_gauge_reports_resident_bytes(self, service):
        _post(service, "/v1/schedule", DOC)
        samples = _metric_samples(service)
        assert samples["repro_sim_service_cache_bytes"] > 0
        assert samples["repro_sim_service_cache_bytes"] == service.app.planner.cache.resident_bytes

    def test_evicted_key_is_rebuilt_with_the_same_bytes(self, monkeypatch):
        """With a budget no entry fits, every value is evicted as soon as
        it is stored, so a repeated request is built again -- into the
        same response bytes."""
        monkeypatch.setattr(cache_module, "MEMORY_BUDGET_BYTES", 1)
        with ServiceThread(ServiceConfig(port=0)) as svc:
            bodies = []
            for _ in range(2):
                req = urllib.request.Request(
                    f"http://{svc.host}:{svc.port}/v1/schedule",
                    data=json.dumps(DOC).encode(), method="POST",
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    bodies.append(resp.read())
            samples = _metric_samples(svc)
        assert bodies[0] == bodies[1]
        assert json.loads(bodies[1])["source"] == "build"
        assert samples["repro_sim_parallel_cache_evictions"] == 2
        assert samples["repro_sim_service_cache_bytes"] == 0


class TestGoldenParity:
    """Service responses are byte-for-byte the library's own answers."""

    def test_fig9_style_schedule_points(self, service):
        n = 6
        for dests in random_destination_sets(n, 12, 3, seed=42):
            doc = {"algorithm": "wsort", "n": n, "source": 0, "destinations": dests}
            status, body, _ = _post(service, "/v1/schedule", doc)
            assert status == 200
            expected = compute_schedule_table(
                "wsort", n, 0, tuple(sorted(dests)), ALL_PORT, ResolutionOrder.DESCENDING
            )
            assert json.loads(json.dumps(expected)) == body["result"]

    def test_fig11_style_simulate_points(self, service):
        n = 5
        for dests in random_destination_sets(n, 8, 3, seed=43):
            doc = {
                "algorithm": "wsort", "n": n, "source": 0,
                "destinations": dests, "size": 4096,
            }
            status, body, _ = _post(service, "/v1/simulate", doc)
            assert status == 200
            expected = compute_delay_stats(
                "wsort", n, 0, tuple(sorted(dests)), 4096, NCUBE2,
                ALL_PORT, ResolutionOrder.DESCENDING,
            )
            assert json.loads(json.dumps(expected)) == body["result"]


class TestKeepAlive:
    def test_several_posts_share_one_connection(self):
        """An HTTP/1.1 client that keeps its connection open gets every
        response on it: the server holds one connection for the lot."""
        with ServiceThread(ServiceConfig(port=0)) as svc:
            conn = http.client.HTTPConnection(svc.host, svc.port, timeout=30)
            try:
                sources = []
                for doc in (DOC, DOC, dict(DOC, destinations=[1, 2, 4])):
                    conn.request("POST", "/v1/schedule", body=json.dumps(doc))
                    resp = conn.getresponse()
                    assert resp.status == 200
                    sources.append(json.loads(resp.read())["source"])
                    assert svc.app.server.connections == 1
            finally:
                conn.close()
        assert sources == ["build", "cache", "build"]


class TestHttpCoalescing:
    def test_concurrent_identical_requests_one_build_identical_bytes(self):
        """64 concurrent identical requests over real sockets: at most one
        build, byte-identical response bodies.

        The threads start together from a barrier and the build takes
        1 s, so every request is in flight during the one build; a
        request that arrived after it would be answered from the cache,
        whose body differs in its ``source`` field."""
        config = ServiceConfig(port=0, build_delay_s=1.0, workers=2)
        with ServiceThread(config) as svc:
            doc = {"algorithm": "wsort", "n": 6, "destinations": [1, 2, 4, 8, 16, 32, 63]}
            payload = json.dumps(doc).encode()
            bodies: list[bytes] = []
            errors: list[Exception] = []
            lock = threading.Lock()
            start = threading.Barrier(64)

            def fire():
                req = urllib.request.Request(
                    f"http://{svc.host}:{svc.port}/v1/schedule",
                    data=payload, method="POST",
                )
                try:
                    start.wait(timeout=60)
                    with urllib.request.urlopen(req, timeout=60) as resp:
                        raw = resp.read()
                    with lock:
                        bodies.append(raw)
                except Exception as exc:  # pragma: no cover - diagnostic
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(64)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            registry = svc.app.metrics
            builds = registry.counter("sim.service.builds").value
            served = registry.counter("sim.service.requests").value
        assert not errors
        assert len(bodies) == 64
        assert len(set(bodies)) == 1  # byte-identical for the whole group
        assert builds == 1.0  # exactly one build per unique key
        assert served >= 64


class TestDeadlines:
    def test_slow_build_times_out_504(self, caplog):
        gc.collect()  # report only this service's tasks, not earlier tests'
        caplog.clear()
        config = ServiceConfig(port=0, build_delay_s=0.5)
        with ServiceThread(config) as svc:
            status, body, _ = _post(
                svc, "/v1/schedule", DOC, headers={"X-Deadline-Ms": "50"}
            )
            assert status == 504
            assert "deadline" in body["error"]
        # the build outlived its request; stopping awaited it, so
        # collecting the service destroys no pending task
        del svc
        gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestRateLimiting:
    def test_429_with_retry_after(self):
        config = ServiceConfig(
            port=0, admission=AdmissionConfig(rate_per_client=1.0, burst=2.0)
        )
        with ServiceThread(config) as svc:
            statuses = []
            headers = {}
            body = {}
            for _ in range(4):
                status, doc, hdrs = _post(
                    svc, "/v1/schedule", DOC, headers={"X-Client-Id": "storm"}
                )
                statuses.append(status)
                if status == 429:
                    headers, body = hdrs, doc
            assert 429 in statuses
            assert int(headers["Retry-After"]) >= 1
            # the body carries the exact wait; the header rounds it up
            assert isinstance(body["retry_after_s"], (int, float))
            assert 0 < body["retry_after_s"] <= int(headers["Retry-After"])


class TestDegradedHealth:
    def test_healthy_instance_not_degraded(self, service):
        status, doc = _get(service, "/health")
        doc = json.loads(doc)
        assert status == 200
        assert doc["degraded"] is False
        assert "degraded_reason" not in doc

    def test_drain_reports_degraded_with_reason(self, service):
        service.app.server._draining = True
        try:
            status, doc = _get(service, "/health")
        finally:
            service.app.server._draining = False
        doc = json.loads(doc)
        assert status == 200
        assert doc["status"] == "draining"
        assert doc["degraded"] is True
        assert doc["degraded_reason"] == "drain"

    def test_overload_reports_degraded_with_reason(self, service):
        admission = service.app.admission
        admission.inflight = service.app.config.admission.max_inflight
        try:
            _, doc = _get(service, "/health")
        finally:
            admission.inflight = 0
        doc = json.loads(doc)
        assert doc["status"] == "ok"  # alive, just saturated -- not draining
        assert doc["degraded"] is True
        assert doc["degraded_reason"] == "overload"


class TestDrain:
    def test_drain_finishes_inflight_then_closes(self):
        svc = ServiceThread(ServiceConfig(port=0)).start()
        host, port = svc.host, svc.port
        status, body, _ = _post(svc, "/v1/schedule", DOC)
        assert status == 200
        svc.stop()
        # after drain the socket no longer accepts connections
        with pytest.raises(OSError):
            with socket.create_connection((host, port), timeout=2):
                pass

    def test_stop_with_idle_keep_alive_client_leaves_no_pending_task(self, caplog):
        gc.collect()  # report only this service's tasks, not earlier tests'
        caplog.clear()
        svc = ServiceThread(ServiceConfig(port=0)).start()
        server = svc.app.server
        with socket.create_connection((svc.host, svc.port), timeout=5) as client:
            client.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
            assert client.recv(4096).startswith(b"HTTP/1.1 200")
            assert server.connections == 1  # idle, kept alive
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                svc.stop()
                gc.collect()  # a task destroyed while pending is reported here
            assert server.connections == 0
            while client.recv(4096):  # the server closed it: EOF, no timeout
                pass
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_stop_closes_connections_before_waiting_for_the_server(self, monkeypatch):
        """Since Python 3.12.1, ``Server.wait_closed`` also waits for every
        open connection to close; drain must close its connections first
        or it never returns while a keep-alive client stays connected.
        The 3.12.1 body is patched in so every Python version checks it."""

        async def wait_closed(server):
            if server._waiters is None:
                return
            waiter = server._loop.create_future()
            server._waiters.append(waiter)
            await waiter

        monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", wait_closed)
        svc = ServiceThread(ServiceConfig(port=0)).start()
        server, thread = svc.app.server, svc._thread
        with socket.create_connection((svc.host, svc.port), timeout=5) as client:
            client.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
            assert client.recv(4096).startswith(b"HTTP/1.1 200")
            svc.stop(timeout=10)
            assert not thread.is_alive()
            assert server.connections == 0
