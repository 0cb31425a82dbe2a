"""Delay comparisons on the wormhole simulator (Figures 11-14).

For each destination-set size, random sets are multicast through the
timed network model; we record, per set, the *average* and *maximum*
delay across destinations, then average over the sets -- exactly the
quantities plotted in Figures 11/13 (average) and 12/14 (maximum).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Sequence

from repro.analysis.workloads import random_destination_sets
from repro.multicast.ports import ALL_PORT, PortModel
from repro.multicast.registry import PAPER_ALGORITHMS
from repro.obs import trace_spans
from repro.parallel.cache import compute_delay_stats
from repro.parallel.engine import run_points
from repro.simulator.params import NCUBE2, Timings

__all__ = ["DelayResult", "delay_experiment"]


@dataclass(slots=True)
class DelayResult:
    """Mean-of-average and mean-of-maximum destination delays (us)."""

    n: int
    m_values: list[int]
    sets_per_point: int
    size: int
    timings: Timings
    ports: PortModel
    avg_delay: dict[str, list[float]]
    max_delay: dict[str, list[float]]
    blocked_time: dict[str, list[float]]

    def series(self, algorithm: str, metric: str = "avg") -> list[tuple[int, float]]:
        data = self.avg_delay if metric == "avg" else self.max_delay
        return list(zip(self.m_values, data[algorithm]))


@dataclass(frozen=True, slots=True)
class _DelayPoint:
    """Picklable spec for one x-axis point of a delay sweep."""

    n: int
    m: int
    sets_per_point: int
    seed: int
    source: int
    algorithms: tuple[str, ...]
    size: int
    timings: Timings
    ports: PortModel


def _delay_point(spec: _DelayPoint) -> dict[str, tuple[float, float, float]]:
    """Evaluate one point: ``{algorithm: (avg, max, blocked) means}``.

    Module-level (and spec-driven) so the sweep engine can run it in a
    worker process; the serial path runs the identical code.  Each
    algorithm simulates each distinct destination set once: a set
    repeats only within a point (at m = 1, and at m = 2**n - 1, where
    every set is the broadcast set).
    """
    with trace_spans.span("point.delay", n=spec.n, m=spec.m, sets=spec.sets_per_point):
        sets = random_destination_sets(
            spec.n, spec.m, spec.sets_per_point, seed=spec.seed, source=spec.source
        )
        out: dict[str, tuple[float, float, float]] = {}
        for name in spec.algorithms:
            memo: dict[tuple[int, ...], dict] = {}
            avgs, maxs, blks = [], [], []
            for dests in sets:
                key = tuple(dests)
                if key not in memo:
                    memo[key] = compute_delay_stats(
                        name, spec.n, spec.source, dests, spec.size, spec.timings, spec.ports
                    )
                stats = memo[key]
                avgs.append(stats["avg_delay_us"])
                maxs.append(stats["max_delay_us"])
                blks.append(stats["total_blocked_us"])
            out[name] = (mean(avgs), mean(maxs), mean(blks))
        return out


def delay_experiment(
    n: int,
    m_values: Sequence[int],
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    sets_per_point: int = 20,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    seed: int = 1993,
    source: int = 0,
) -> DelayResult:
    """Run the Figures 11-14 experiment.

    Points run through :func:`repro.parallel.engine.run_points` (serial
    by default, worker-process fan-out inside a
    :func:`~repro.parallel.engine.sweep_context`, whose point store
    serves Figure 12 the points Figure 11 computed), and each point
    simulates each of its distinct destination sets once.

    Args:
        n: cube dimension (5 for the nCUBE-2 figures, 10 for the
            MultiSim figures).
        m_values: destination-set sizes to sweep.
        sets_per_point: random sets per point (paper: 20 on the nCUBE-2,
            100 in simulation).
        size: message length in bytes (paper: 4096).
    """
    specs = [
        _DelayPoint(
            n, m, sets_per_point, seed + i, source, tuple(algorithms), size, timings, ports
        )
        for i, m in enumerate(m_values)
    ]
    points = run_points(_delay_point, specs, label="delay")

    avg_delay: dict[str, list[float]] = {name: [] for name in algorithms}
    max_delay: dict[str, list[float]] = {name: [] for name in algorithms}
    blocked: dict[str, list[float]] = {name: [] for name in algorithms}
    for point in points:
        for name in algorithms:
            avg, mx, blk = point[name]
            avg_delay[name].append(avg)
            max_delay[name].append(mx)
            blocked[name].append(blk)

    return DelayResult(
        n=n,
        m_values=list(m_values),
        sets_per_point=sets_per_point,
        size=size,
        timings=timings,
        ports=ports,
        avg_delay=avg_delay,
        max_delay=max_delay,
        blocked_time=blocked,
    )
