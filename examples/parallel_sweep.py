"""Parallel figure sweeps that compute each point once.

Runs the Figure 11/12 fast sweep three ways -- serial, parallel
(worker processes), and parallel again against the point log the
first parallel run left in its cache dir -- and shows that all three
produce byte-identical tables while the re-run computes nothing.
See docs/PERFORMANCE.md.

Run:  PYTHONPATH=src python examples/parallel_sweep.py
"""

from __future__ import annotations

import tempfile
from time import perf_counter

from repro.analysis.experiments import run_experiment, run_sweep
from repro.obs.metrics import MetricsRegistry


def main() -> None:
    jobs = 2

    t0 = perf_counter()
    serial = run_experiment("fig11", fast=True)
    t_serial = perf_counter() - t0
    print(f"serial:        fig11 fast sweep in {t_serial:.2f} s")

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        t0 = perf_counter()
        cold = run_experiment("fig11", fast=True, jobs=jobs, cache_dir=cache_dir)
        t_cold = perf_counter() - t0
        print(f"parallel cold: jobs={jobs}, every point computed, {t_cold:.2f} s")

        registry = MetricsRegistry()
        t0 = perf_counter()
        tables = run_sweep(
            ["fig11", "fig12"], fast=True, jobs=jobs,
            cache_dir=cache_dir, metrics=registry,
        )
        t_warm = perf_counter() - t0
        warm = tables["fig11"]
        snap = registry.snapshot()
        total = snap["sim.parallel.points_total"]["value"]
        served = snap["sim.parallel.points_served"]["value"]
        print(
            f"parallel warm: fig11 + fig12 in {t_warm:.2f} s "
            f"({served:g} of {total:g} points served from the log, "
            f"{total - served:g} computed -- fig12 rides fig11's points)"
        )

    assert cold.to_json() == serial.to_json()
    assert warm.to_json() == serial.to_json()
    print("bit-identity: serial == parallel cold == parallel warm  OK")
    print()
    print(serial.render())


if __name__ == "__main__":
    main()
