"""Bit-identity regression: parallel and cached sweeps change nothing.

``run_experiment(..., jobs=4)`` must produce byte-identical tables to
the serial path for the fig09 (stepwise) and fig11 (simulated delay)
fast sweeps -- point log cold and warm -- because per-point seeds live
in the point specs and every stored value round-trips JSON exactly.
This is the contract that lets the parallel engine replace the serial
evaluation everywhere.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_experiment, run_sweep
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_spans import get_tracer, trace_capture

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def serial_tables():
    return {
        "fig9": run_experiment("fig9", fast=True),
        "fig11": run_experiment("fig11", fast=True),
    }


@pytest.mark.parametrize("fig", ["fig9", "fig11"])
def test_jobs4_cold_and_warm_cache_byte_identical(fig, serial_tables, tmp_path):
    serial = serial_tables[fig]
    cache_dir = tmp_path / "cache"

    cold = run_experiment(fig, fast=True, jobs=4, cache_dir=cache_dir)
    assert cold.to_json() == serial.to_json()
    assert cold.render() == serial.render()

    warm_metrics = MetricsRegistry()
    warm = run_sweep(
        [fig], fast=True, jobs=4, cache_dir=cache_dir, metrics=warm_metrics
    )[fig]
    assert warm.to_json() == serial.to_json()
    assert warm.render() == serial.render()
    snap = warm_metrics.snapshot()
    # the warm sweep computes nothing: every point is served from the log
    total = snap["sim.parallel.points_total"]["value"]
    assert snap["sim.parallel.points_served"]["value"] == total
    assert "sim.parallel.worker_failures" not in snap  # nothing was dispatched


def test_serial_with_cache_byte_identical(serial_tables, tmp_path):
    """jobs=1 + point log is the same table too (memo layers alone)."""
    cached = run_experiment("fig9", fast=True, jobs=1, cache_dir=tmp_path / "c")
    assert cached.to_json() == serial_tables["fig9"].to_json()


@pytest.mark.parametrize("fig", ["fig9", "fig11"])
def test_tracing_is_bit_identical(fig, serial_tables):
    """Tracing observes, never perturbs: a traced sweep renders the
    same bytes as an untraced one (and hence as the seed outputs)."""
    with trace_capture(label="bit-identity") as tracer:
        traced = run_experiment(fig, fast=True)
    assert get_tracer() is None  # capture restored the off state
    assert traced.to_json() == serial_tables[fig].to_json()
    assert traced.render() == serial_tables[fig].render()
    # the trace itself is non-trivial: per-point spans were recorded
    point_span = "point.steps" if fig == "fig9" else "point.delay"
    assert {s.name for s in tracer.spans} >= {"experiment", point_span}


@pytest.mark.parametrize("fig", ["fig9", "fig11"])
def test_traced_parallel_sweep_bit_identical(fig, serial_tables, tmp_path):
    """Tracing composed with the parallel engine (worker span replay
    active) still changes nothing in the rendered tables."""
    with trace_capture(label="bit-identity-parallel"):
        traced = run_experiment(fig, fast=True, jobs=2, cache_dir=tmp_path / "c")
    assert traced.to_json() == serial_tables[fig].to_json()


def test_fig11_fig12_share_cached_points(tmp_path):
    """Figures 11 and 12 are two views of one sweep: under a shared
    context fig12 computes nothing."""
    registry = MetricsRegistry()
    tables = run_sweep(
        ["fig11", "fig12"],
        fast=True,
        jobs=2,
        cache_dir=tmp_path / "c",
        metrics=registry,
    )
    assert tables["fig11"].to_json() == run_experiment("fig11", fast=True).to_json()
    assert tables["fig12"].to_json() == run_experiment("fig12", fast=True).to_json()
    snap = registry.snapshot()
    # fig12's 10 points are all served from fig11's; only fig11's ran
    assert snap["sim.parallel.points_served"]["value"] == 10
    assert snap["sim.parallel.points_remote"]["value"] == 10
