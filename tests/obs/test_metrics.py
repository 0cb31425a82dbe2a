"""Tests for the metrics registry and its instruments."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    UTILIZATION_BUCKETS,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot(self):
        c = Counter("x")
        c.inc(4)
        assert c.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_tracks_extrema(self):
        g = Gauge("depth")
        g.set(5.0)
        g.set(2.0)
        g.set(9.0)
        snap = g.snapshot()
        assert snap["value"] == 9.0
        assert snap["min"] == 2.0
        assert snap["max"] == 9.0

    def test_add(self):
        g = Gauge("x")
        g.set(1.0)
        g.add(2.0)
        assert g.value == 3.0

    def test_first_set_initializes_extrema(self):
        g = Gauge("x")
        g.set(-4.0)
        assert g.min == g.max == -4.0


class TestTimer:
    def test_records_and_averages(self):
        t = Timer("wall")
        t.record(0.25)
        t.record(0.75)
        snap = t.snapshot()
        assert snap["total_seconds"] == 1.0
        assert snap["count"] == 2
        assert snap["mean_seconds"] == 0.5

    def test_context_manager_measures_positive_time(self):
        t = Timer("wall")
        with t.time():
            sum(range(1000))
        assert t.count == 1
        assert t.total_seconds >= 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Timer("wall").record(-0.1)


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_edge(self):
        h = Histogram("h", bounds=(10.0, 20.0))
        for v in (5.0, 10.0, 10.5, 20.0, 25.0):
            h.observe(v)
        assert h.counts == [2, 2]  # 5 and 10 in <=10; 10.5 and 20 in <=20
        assert h.overflow == 1
        assert h.count == 5
        assert h.min == 5.0 and h.max == 25.0

    def test_mean(self):
        h = Histogram("h", bounds=(100.0,))
        h.observe(10.0)
        h.observe(20.0)
        assert h.mean == 15.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_utilization_buckets_cover_unit_interval(self):
        h = Histogram("u", bounds=UTILIZATION_BUCKETS)
        h.observe(0.05)
        h.observe(1.0)
        assert h.overflow == 0
        assert sum(h.counts) == 2

    def test_service_latency_buckets_are_increasing(self):
        from repro.obs.metrics import SERVICE_LATENCY_BUCKETS_MS

        bounds = SERVICE_LATENCY_BUCKETS_MS
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        Histogram("lat", bounds=bounds)  # accepted as histogram bounds


class TestMetricsRegistry:
    def test_instruments_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("events").inc(10)
        reg.gauge("depth").set(3)
        reg.timer("wall").record(0.5)
        reg.histogram("delay").observe(123.0)
        snap = reg.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["events"]["value"] == 10
        assert parsed["delay"]["count"] == 1

    def test_names_and_len(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert len(reg) == 2
        assert "a" in reg and "zzz" not in reg

