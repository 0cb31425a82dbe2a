"""Tests for the load generator: config, skew, gates, telemetry."""

from __future__ import annotations

import json
import random

import pytest

from repro.obs.sink import RotatingJsonlSink, read_jsonl
from repro.service import AdmissionConfig, LoadConfig, ServiceConfig, ServiceThread
from repro.service.loadgen import _retry_after, _ZipfPicker, main, run_load_sync


@pytest.fixture(scope="module")
def service():
    with ServiceThread(ServiceConfig(port=0)) as svc:
        yield svc


class TestLoadConfig:
    @pytest.mark.parametrize(
        "over",
        [
            {"endpoint": "teleport"},
            {"arrival": "bursty"},
            {"requests": 0},
            {"concurrency": 0},
            {"m": 64, "n": 6},  # m >= 2^n
            {"keys": 0},
            {"skew": -1.0},
            {"rate": 0.0},
        ],
    )
    def test_validation(self, over):
        with pytest.raises(ValueError):
            LoadConfig(**over)


class TestZipfPicker:
    def test_zero_skew_is_roughly_uniform(self):
        picker = _ZipfPicker(4, 0.0, random.Random(7))
        counts = [0] * 4
        for _ in range(4000):
            counts[picker.pick()] += 1
        assert min(counts) > 800  # ~1000 each

    def test_positive_skew_concentrates_on_rank_zero(self):
        picker = _ZipfPicker(16, 1.5, random.Random(7))
        counts = [0] * 16
        for _ in range(4000):
            counts[picker.pick()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 4000 / 4  # far above the uniform share


class TestRunLoad:
    def test_closed_loop_against_live_service(self, service):
        summary = run_load_sync(
            LoadConfig(
                host=service.host, port=service.port,
                requests=60, concurrency=4, keys=4, n=5, m=6,
            )
        )
        assert summary.requests == 60
        assert summary.ok == 60
        assert summary.statuses == {200: 60}
        assert summary.builds >= 1
        assert summary.cache_hits + summary.builds == 60
        assert summary.rps > 0
        assert summary.p99_ms >= summary.p50_ms > 0

    def test_poisson_arrival(self, service):
        summary = run_load_sync(
            LoadConfig(
                host=service.host, port=service.port,
                requests=20, concurrency=4, keys=2, n=5, m=4,
                arrival="poisson", rate=2000.0,
            )
        )
        assert summary.ok == 20

    def test_repeated_key_workload_hits_cache(self, service):
        config = LoadConfig(
            host=service.host, port=service.port,
            requests=100, concurrency=4, keys=3, n=5, m=5, skew=1.1,
            seed=99,
        )
        run_load_sync(config)  # warm
        summary = run_load_sync(config)
        assert summary.hit_ratio > 0.9

    def test_telemetry_records_and_rotation(self, service, tmp_path):
        path = tmp_path / "load.jsonl"
        sink = RotatingJsonlSink(str(path), max_bytes=2048)
        run_load_sync(
            LoadConfig(
                host=service.host, port=service.port,
                requests=40, concurrency=2, keys=2, n=5, m=4,
            ),
            telemetry=sink,
        )
        assert sink.written == 40
        assert sink.rotations >= 1
        total = sum(len(read_jsonl(seg)) for seg in sink.segments())
        assert total == 40
        rec = read_jsonl(sink.segments()[0])[0]
        assert rec.kind == "service-request"
        assert rec.extra["status"] == 200
        assert rec.extra["source"] in ("cache", "build")


class TestRetries:
    def test_429_honors_retry_after_and_reoffers(self):
        """Throttled requests wait out the server's Retry-After and
        succeed on a later attempt instead of surfacing as failures."""
        config = ServiceConfig(
            port=0,
            admission=AdmissionConfig(rate_per_client=50.0, burst=2.0, retry_after_s=0.05),
        )
        with ServiceThread(config) as svc:
            summary = run_load_sync(
                LoadConfig(
                    host=svc.host, port=svc.port,
                    requests=40, concurrency=4, keys=4, n=5, m=4,
                    retries=4, backoff_s=0.01,
                )
            )
        assert summary.throttled > 0
        assert summary.statuses.get(429, 0) > 0
        assert summary.ok > 0
        assert summary.errors == 0  # 429s are throttles, not failures

    def test_retry_wait_prefers_the_exact_body_value(self):
        """The body's ``retry_after_s`` is exact; ``Retry-After`` rounds it
        up to a whole second, so it is only the fallback."""
        body = json.dumps({"error": "slow down", "retry_after_s": 0.02}).encode()
        assert _retry_after({"retry-after": "1"}, body, 0.05) == 0.02
        assert _retry_after({"retry-after": "1"}, b"{}", 0.05) == 1.0
        assert _retry_after({"retry-after": "1"}, b"not json", 0.05) == 1.0
        assert _retry_after({}, b"[]", 0.05) == 0.05

    def test_connection_refused_retries_then_counts_error(self):
        summary = run_load_sync(
            LoadConfig(
                host="127.0.0.1", port=1,
                requests=3, concurrency=1, retries=2, backoff_s=0.005,
            )
        )
        assert summary.errors == 3
        assert summary.retried == 6  # two jittered-backoff retries each
        assert summary.requests == 0  # nothing ever got a response

    def test_retries_zero_fails_immediately(self):
        summary = run_load_sync(
            LoadConfig(host="127.0.0.1", port=1, requests=2, concurrency=1, retries=0)
        )
        assert summary.errors == 2
        assert summary.retried == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(retries=-1)
        with pytest.raises(ValueError):
            LoadConfig(backoff_s=0.0)
        with pytest.raises(ValueError):
            LoadConfig(backoff_s=1.0, max_backoff_s=0.5)

    def test_summary_reports_retry_counters(self, service):
        summary = run_load_sync(
            LoadConfig(host=service.host, port=service.port,
                       requests=10, concurrency=2, keys=2, n=5, m=4)
        )
        doc = summary.as_dict()
        assert doc["retried"] == 0 and doc["throttled"] == 0


class TestMain:
    def test_summary_and_gates_pass(self, service, capsys):
        rc = main(
            [
                "--port", str(service.port), "--host", service.host,
                "--requests", "60", "--concurrency", "4",
                "--keys", "3", "--n", "5", "--m", "4",
                "--min-hit-ratio", "0.5", "--max-p99-ms", "5000",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["requests"] == 60
        assert doc["hit_ratio"] >= 0.5

    def test_gate_failure_exits_one(self, service, capsys):
        rc = main(
            [
                "--port", str(service.port), "--host", service.host,
                "--requests", "10", "--keys", "2", "--n", "5", "--m", "4",
                "--min-hit-ratio", "1.01",  # unattainable
            ]
        )
        assert rc == 1
        assert "gate failed" in capsys.readouterr().err

    def test_bad_args_exit_two(self, service):
        with pytest.raises(SystemExit) as exc_info:
            main(["--port", str(service.port), "--requests", "0"])
        assert exc_info.value.code == 2

    def test_unreachable_service_exits_one(self, capsys):
        # connection refusals surface as transport errors; with zero
        # successful responses the implicit gate fails the run
        rc = main(["--port", "1", "--requests", "5", "--concurrency", "1"])
        assert rc == 1
        assert "no successful responses" in capsys.readouterr().err
