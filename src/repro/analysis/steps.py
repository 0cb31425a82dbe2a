"""Stepwise comparisons (Figures 9 and 10).

For each destination-set size ``m``, draw random sets and record the
*maximum number of steps* each algorithm needs to reach all
destinations on an all-port machine; report the average (and extremes)
over the sets.  U-cube's curve is the ``ceil(log2(m + 1))`` staircase;
the all-port algorithms fall below it and smooth it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Sequence

from repro.analysis.workloads import random_destination_sets
from repro.multicast.ports import ALL_PORT, PortModel
from repro.multicast.registry import PAPER_ALGORITHMS
from repro.obs import trace_spans
from repro.parallel.cache import cached_schedule_table
from repro.parallel.engine import run_points

__all__ = ["StepsResult", "stepwise_experiment"]


@dataclass(slots=True)
class StepsResult:
    """Average/min/max of the per-set maximum step count, one series
    per algorithm."""

    n: int
    m_values: list[int]
    sets_per_point: int
    ports: PortModel
    mean_steps: dict[str, list[float]]
    min_steps: dict[str, list[int]]
    max_steps: dict[str, list[int]]

    def series(self, algorithm: str) -> list[tuple[int, float]]:
        """``(m, mean max steps)`` pairs for one algorithm."""
        return list(zip(self.m_values, self.mean_steps[algorithm]))


@dataclass(frozen=True, slots=True)
class _StepsPoint:
    """Picklable spec for one x-axis point of a stepwise sweep."""

    n: int
    m: int
    sets_per_point: int
    seed: int
    source: int
    algorithms: tuple[str, ...]
    ports: PortModel


def _steps_point(spec: _StepsPoint) -> dict[str, tuple[float, int, int]]:
    """Evaluate one point: ``{algorithm: (mean, min, max) max-steps}``.

    Module-level (and spec-driven) so the sweep engine can run it in a
    worker process; the serial path runs the identical code.
    """
    with trace_spans.span("point.steps", n=spec.n, m=spec.m, sets=spec.sets_per_point):
        sets = random_destination_sets(
            spec.n, spec.m, spec.sets_per_point, seed=spec.seed, source=spec.source
        )
        out: dict[str, tuple[float, int, int]] = {}
        for name in spec.algorithms:
            counts = [
                cached_schedule_table(name, spec.n, spec.source, dests, spec.ports)["max_step"]
                for dests in sets
            ]
            out[name] = (mean(counts), min(counts), max(counts))
        return out


def stepwise_experiment(
    n: int,
    m_values: Sequence[int],
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    sets_per_point: int = 100,
    seed: int = 1993,
    ports: PortModel = ALL_PORT,
    source: int = 0,
) -> StepsResult:
    """Run the Figures 9/10 experiment.

    Points run through :func:`repro.parallel.engine.run_points`:
    serial by default, fanned across worker processes inside a
    :func:`~repro.parallel.engine.sweep_context`, with identical
    results either way.

    Args:
        n: cube dimension (6 for Fig. 9, 10 for Fig. 10).
        m_values: destination-set sizes to sweep.
        algorithms: registry names, one curve each.
        sets_per_point: random sets per (m, algorithm) point (paper: 100).
        seed: RNG seed; the same sets are used for all algorithms, as in
            a paired experiment.  Per-point seeds are ``seed + i`` by
            x-index -- part of the point spec, so results never depend
            on scheduling order.
    """
    specs = [
        _StepsPoint(n, m, sets_per_point, seed + i, source, tuple(algorithms), ports)
        for i, m in enumerate(m_values)
    ]
    points = run_points(_steps_point, specs, label="stepwise")

    mean_steps: dict[str, list[float]] = {name: [] for name in algorithms}
    min_steps: dict[str, list[int]] = {name: [] for name in algorithms}
    max_steps: dict[str, list[int]] = {name: [] for name in algorithms}
    for point in points:
        for name in algorithms:
            avg, lo, hi = point[name]
            mean_steps[name].append(avg)
            min_steps[name].append(lo)
            max_steps[name].append(hi)

    return StepsResult(
        n=n,
        m_values=list(m_values),
        sets_per_point=sets_per_point,
        ports=ports,
        mean_steps=mean_steps,
        min_steps=min_steps,
        max_steps=max_steps,
    )
