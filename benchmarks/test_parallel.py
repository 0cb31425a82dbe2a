"""Sweep-engine benchmarks: serial vs worker processes vs warm point log.

Measures the fig11 fast sweep three ways on the current machine and
asserts the engine's contract along the way: parallel and re-run
tables are byte-identical to the serial one, and a warm point log
serves every sweep point (``sim.parallel.points_served``).  The speedup
itself is hardware-dependent (a single-core container shows pool
overhead instead of a win), so only identity and cache behavior are
asserted; the timings land in the pytest-benchmark report.
"""

from __future__ import annotations

import tempfile

from repro.analysis.experiments import run_experiment, run_sweep
from repro.obs.metrics import MetricsRegistry

from .conftest import paper_parity


def _fast() -> bool:
    return not paper_parity()


def test_fig11_serial(benchmark):
    table = benchmark.pedantic(
        run_experiment, args=("fig11",), kwargs={"fast": _fast()}, rounds=1
    )
    assert table.rows


def test_fig11_parallel_cold(benchmark):
    serial = run_experiment("fig11", fast=_fast())
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        table = benchmark.pedantic(
            run_experiment,
            args=("fig11",),
            kwargs={"fast": _fast(), "jobs": 4, "cache_dir": cache_dir},
            rounds=1,
        )
    assert table.to_json() == serial.to_json()


def test_fig11_warm_cache(benchmark):
    serial = run_experiment("fig11", fast=_fast())
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        run_experiment("fig11", fast=_fast(), jobs=2, cache_dir=cache_dir)

        registry = MetricsRegistry()

        def warm():
            return run_sweep(
                ["fig11"],
                fast=_fast(),
                jobs=2,
                cache_dir=cache_dir,
                metrics=registry,
            )["fig11"]

        table = benchmark.pedantic(warm, rounds=1)
    assert table.to_json() == serial.to_json()
    snap = registry.snapshot()
    total = snap["sim.parallel.points_total"]["value"]
    assert snap["sim.parallel.points_served"]["value"] == total
    assert "sim.parallel.worker_failures" not in snap  # nothing was dispatched
