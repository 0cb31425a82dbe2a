"""Child process of the ``figures`` workload: run the figure sweep.

Run as ``python -m perfbench.sweep_child`` with the checkout's ``src``
on ``PYTHONPATH`` (``perfbench/figures.py`` launches it).  It prints
``ready`` once its imports are done -- the end of set-up -- then, unless
``--setup-only``, runs ``--sweeps`` sweeps, each followed by a block of
the host reference loop, and writes its findings as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--sweeps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tmp", type=Path)
    args = parser.parse_args(argv)

    from repro.analysis.experiments import run_sweep
    from repro.obs.metrics import MetricsRegistry

    from perfbench import checks, hostref

    print("ready", flush=True)
    if args.setup_only:
        return 0

    jobs = len(os.sched_getaffinity(0))
    problems: list[str] = []
    walls: list[float] = []
    points = failed = sweeps = 0

    def sweep(metrics: MetricsRegistry) -> tuple[float, dict]:
        """One timed ``run_sweep`` on a fresh disk cache, then its checks.
        A sweep that raises counts every point it dispatched as failed."""
        nonlocal points, failed, sweeps
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.tmp)
        try:
            t0 = time.perf_counter()
            tables = run_sweep(checks.SWEEP_IDS, fast=True, jobs=jobs,
                               cache_dir=cache_dir, metrics=metrics)
            wall = time.perf_counter() - t0
        except Exception:
            failed += int(metrics.counter("sim.parallel.points_total").value)
            raise
        finally:
            points += int(metrics.counter("sim.parallel.points_total").value)
            shutil.rmtree(cache_dir, ignore_errors=True)
        sweeps += 1
        problems.extend(checks.check_tables(tables))
        return wall, tables

    result: dict = {"jobs": jobs}
    # blocks of the host reference loop, timed before the first
    # untraced sweep and after each one, while no sweep runs
    blocks = [hostref.block()]
    try:
        if args.trace:
            from perfbench import figures_trace

            untraced, _ = sweep(MetricsRegistry())
            walls.append(untraced)
            blocks.append(hostref.block())
            result["layers"] = figures_trace.traced_sweep(
                sweep, untraced, jobs, args.out.with_name("trace-figures.json"), problems
            )
        else:
            for _ in range(args.sweeps):
                walls.append(sweep(MetricsRegistry())[0])
                blocks.append(hostref.block())
    except Exception as exc:
        problems.append(f"sweep raised {type(exc).__name__}: {exc}")
    result.update(
        walls=walls,
        ref_blocks=blocks,
        sweeps=sweeps,
        points=points,
        failed=failed,
        problems=problems,
        peak_rss_mb=_peak_rss_mb(),
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
