"""The sweep engine: dispatch, ordering, fallback, merging.

The point functions live at module level so they pickle by reference
into worker processes (the engine's own requirement of its callers).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import run_sweep
from repro.obs.metrics import MetricsRegistry, merge_snapshot
from repro.obs.sink import MemorySink, capture
from repro.obs.telemetry import RunRecord, new_run_id
from repro.parallel.engine import default_jobs, run_points, sweep_context
from repro.parallel.journal import POINT_LOG, load_journal

_PARENT_PID = os.getpid()


def _square(x: int) -> int:
    return x * x


def _emit_and_square(x: int) -> int:
    from repro.obs import sink

    sink.emit(RunRecord(run_id=new_run_id(), kind="test-point", n=0, extra={"x": x}))
    return x * x


def _die_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        os._exit(13)  # hard crash: the worker's link reads EOF
    return x * x


def _fail_on_seven(x: int) -> int:
    if x == 7:
        raise ValueError("seven is right out")
    return x * x


class TestSerialPath:
    def test_no_context_is_a_plain_map(self):
        assert run_points(_square, [3, 1, 2]) == [9, 1, 4]

    def test_jobs_one_stays_in_process(self):
        with sweep_context(jobs=1) as registry:
            assert run_points(_square, range(5)) == [0, 1, 4, 9, 16]
        snap = registry.snapshot()
        assert snap["sim.parallel.points_total"]["value"] == 5
        assert "sim.parallel.points_remote" not in snap

    def test_single_point_never_pays_pool_cost(self):
        with sweep_context(jobs=4) as registry:
            assert run_points(_square, [6]) == [36]
        assert "sim.parallel.chunks" not in registry.snapshot()


class TestParallelPath:
    def test_results_in_submission_order(self):
        with sweep_context(jobs=2, chunk_size=2) as registry:
            assert run_points(_square, range(11)) == [x * x for x in range(11)]
        snap = registry.snapshot()
        assert snap["sim.parallel.points_total"]["value"] == 11
        assert snap["sim.parallel.points_remote"]["value"] == 11
        assert snap["sim.parallel.chunks"]["value"] == 6
        assert snap["sim.parallel.worker_failures"]["value"] == 0

    def test_worker_telemetry_merges_into_parent_sink(self):
        with capture() as sink:
            with sweep_context(jobs=2, chunk_size=1):
                run_points(_emit_and_square, range(4))
        xs = sorted(r.extra["x"] for r in sink.records)
        assert xs == [0, 1, 2, 3]
        assert all(r.kind == "test-point" for r in sink.records)

    def test_no_parent_sink_discards_worker_records(self):
        with sweep_context(jobs=2, chunk_size=1):
            assert run_points(_emit_and_square, range(3)) == [0, 1, 4]

    def test_nested_contexts_restore_outer(self):
        with sweep_context(jobs=1) as outer:
            with sweep_context(jobs=1) as inner:
                run_points(_square, [1, 2])
            run_points(_square, [3, 4])
        assert inner.snapshot()["sim.parallel.points_total"]["value"] == 2
        assert outer.snapshot()["sim.parallel.points_total"]["value"] == 2

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS='abc'"):
            default_jobs()
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1


class TestFallback:
    def test_dead_workers_fall_back_in_process(self):
        with sweep_context(jobs=2, chunk_size=2) as registry:
            assert run_points(_die_in_worker, range(6)) == [x * x for x in range(6)]
        snap = registry.snapshot()
        assert snap["sim.parallel.worker_failures"]["value"] >= 1
        assert snap["sim.parallel.fallback_points"]["value"] == 6

    def test_unpicklable_fn_falls_back_in_process(self):
        with sweep_context(jobs=2) as registry:
            assert run_points(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert registry.snapshot()["sim.parallel.worker_failures"]["value"] >= 1

    def test_deterministic_point_errors_still_surface(self):
        with sweep_context(jobs=2, chunk_size=2):
            with pytest.raises(ValueError, match="seven"):
                run_points(_fail_on_seven, range(10))


def _times(k: int):
    def scale(x: int) -> int:
        return k * x

    return scale


class TestPointMemo:
    """Inside a context each point is computed once: later requests for
    its fingerprint are served from the context's point store."""

    def test_a_point_is_computed_once_per_context(self):
        with sweep_context(jobs=2, chunk_size=1) as registry:
            first = run_points(_square, range(4))
            assert run_points(_square, [3, 1, 7]) == [9, 1, 49]
        assert first == [0, 1, 4, 9]
        snap = registry.snapshot()
        assert snap["sim.parallel.points_total"]["value"] == 7
        assert snap["sim.parallel.points_served"]["value"] == 2
        assert snap["sim.parallel.points_remote"]["value"] == 4  # 7 ran in-process

    def test_lambdas_and_closures_are_never_memoized(self):
        """Two lambdas, or two closures of one function, share a name
        and not a meaning: each call returns its own results."""
        with sweep_context(jobs=1) as registry:
            assert run_points(lambda x: x + 1, [1, 2]) == [2, 3]
            assert run_points(lambda x: x * 10, [1, 2]) == [10, 20]
            assert run_points(_times(2), [1, 2]) == [2, 4]
            assert run_points(_times(3), [1, 2]) == [3, 6]
            run_points(_square, [1, 2])
            assert run_points(_square, [1, 2]) == [1, 4]
        assert registry.counter("sim.parallel.points_served").value == 2  # _square's

    def test_a_spec_that_does_not_fingerprint_always_computes(self):
        class Opaque:
            pass

        with sweep_context(jobs=1) as registry:
            ids = run_points(id, [Opaque()]) + run_points(id, [Opaque()])
        assert len(ids) == 2
        assert registry.counter("sim.parallel.points_served").value == 0

    def test_fig11_fig12_at_jobs2_compute_each_point_once(self):
        """fig12 asks for exactly fig11's points: none is dispatched
        twice, and telemetry holds one record per simulation run, as
        many as a serial run writes."""
        with capture() as serial:
            run_sweep(["fig11", "fig12"], fast=True)
        with capture() as sink:
            registry = MetricsRegistry()
            run_sweep(["fig11", "fig12"], fast=True, jobs=2, metrics=registry)
        snap = registry.snapshot()
        assert snap["sim.parallel.points_total"]["value"] == 20
        assert snap["sim.parallel.points_served"]["value"] == 10
        assert snap["sim.parallel.points_remote"]["value"] == 10
        simulations = [r for r in sink.records if r.kind == "multicast"]
        assert len(simulations) == sum(r.kind == "multicast" for r in serial.records) == 704

    def test_rerun_with_same_cache_dir_computes_nothing(self, tmp_path):
        first = run_sweep(["fig9", "fig11"], fast=True, jobs=2, cache_dir=tmp_path)
        assert load_journal(tmp_path / POINT_LOG).records == 28  # 18 + 10 points
        registry = MetricsRegistry()
        second = run_sweep(
            ["fig9", "fig11"], fast=True, jobs=2, cache_dir=tmp_path, metrics=registry
        )
        snap = registry.snapshot()
        assert snap["sim.parallel.points_served"]["value"] == 28
        assert snap["sim.parallel.points_total"]["value"] == 28
        assert "sim.parallel.chunks" not in snap  # nothing was dispatched
        for fig in first:
            assert second[fig].to_json() == first[fig].to_json()
            assert second[fig].render() == first[fig].render()

    def test_a_line_logged_under_another_cache_schema_is_not_served(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr("repro.parallel.cache.CACHE_SCHEMA", 999)
            with sweep_context(jobs=1, cache_dir=tmp_path):
                run_points(_square, range(3))
        assert load_journal(tmp_path / POINT_LOG).records == 3
        with sweep_context(jobs=1, cache_dir=tmp_path) as registry:
            assert run_points(_square, range(3)) == [0, 1, 4]
        assert registry.counter("sim.parallel.points_served").value == 0
        assert load_journal(tmp_path / POINT_LOG).records == 6


class TestMergeSnapshot:
    def test_counters_timers_histograms_add(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.timer("t").record(0.25)
        hist = source.histogram("h", (1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        target = MetricsRegistry()
        target.counter("c").inc(1)
        merge_snapshot(target, source.snapshot())
        merge_snapshot(target, source.snapshot())
        snap = target.snapshot()
        assert snap["c"]["value"] == 7
        assert snap["t"]["count"] == 2
        assert snap["t"]["total_seconds"] == 0.5
        assert snap["h"]["count"] == 4
        assert snap["h"]["overflow"] == 2
        assert snap["h"]["min"] == 0.5 and snap["h"]["max"] == 5.0

    def test_gauge_keeps_latest_with_merged_extrema(self):
        source = MetricsRegistry()
        source.gauge("g").set(-5)
        source.gauge("g").set(2)
        target = MetricsRegistry()
        target.gauge("g").set(10)
        merge_snapshot(target, source.snapshot())
        snap = target.snapshot()["g"]
        assert snap["value"] == 2
        assert snap["min"] == -5 and snap["max"] == 10

    def test_histogram_bounds_mismatch_rejected(self):
        source = MetricsRegistry()
        source.histogram("h", (1.0, 2.0)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("h", (1.0, 3.0))
        with pytest.raises(ValueError, match="bounds mismatch"):
            merge_snapshot(target, source.snapshot())

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument"):
            merge_snapshot(MetricsRegistry(), {"x": {"type": "mystery"}})


class TestWorkerSinkIsolation:
    def test_memory_sink_records_are_buffered_not_shared(self):
        """A MemorySink in the parent must not receive direct worker
        writes (workers buffer and the parent replays)."""
        sink = MemorySink()
        with capture(sink):
            with sweep_context(jobs=2, chunk_size=1):
                run_points(_emit_and_square, range(3))
        assert len(sink.records) == 3


class TestWorkerStdout:
    def test_parallel_sweep_workers_write_nothing_to_fd1(self, capfd):
        """Forked workers share the parent's stdout: a worker that
        printed, or re-flushed a buffer it inherited, would corrupt
        ``sweep --json``."""
        reference = run_sweep(["fig9"], fast=True)["fig9"].to_json()
        capfd.readouterr()
        assert run_sweep(["fig9"], fast=True, jobs=2)["fig9"].to_json() == reference
        assert capfd.readouterr().out == ""
