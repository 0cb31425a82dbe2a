"""Metamorphic equalities between the simulate entry points.

Every driver that can be run with nothing extra -- no faults, one
multicast, no background traffic -- must give what
``simulate_multicast`` gives.  The checks run on one seeded grid: the
four paper algorithms x one-port/all-port x n = 3..6 x 10 random
(source, destination set) pairs, 320 simulated trees.
"""

from __future__ import annotations

import random

import pytest

from repro.faults import simulate_degraded_multicast
from repro.multicast.ports import ALL_PORT, ONE_PORT
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.simulator.multirun import simulate_concurrent_multicasts
from repro.simulator.run import simulate_multicast
from repro.simulator.traffic import simulate_multicast_under_load

PAIRS = 10


def _grid_trees(name: str):
    rng = random.Random(f"metamorphic-{name}")
    algorithm = get_algorithm(name)
    for n in range(3, 7):
        for _ in range(PAIRS):
            source = rng.randrange(1 << n)
            others = [v for v in range(1 << n) if v != source]
            dests = rng.sample(others, rng.randint(1, len(others)))
            yield algorithm.build_tree(n, source, dests)


GRID = [
    pytest.param(name, ports, id=f"{name}-{ports.name}")
    for name in PAPER_ALGORITHMS
    for ports in (ONE_PORT, ALL_PORT)
]


@pytest.mark.parametrize("name, ports", GRID)
def test_degraded_without_faults_equals_plain(name, ports):
    for tree in _grid_trees(name):
        plain = simulate_multicast(tree, ports=ports)
        degraded = simulate_degraded_multicast(tree, None, ports=ports)
        assert degraded.delays == plain.delays
        assert degraded.events == plain.events
        assert degraded.total_blocked_time == plain.total_blocked_time
        assert degraded.completion_time == plain.completion_time
        assert degraded.avg_delay == plain.avg_delay
        assert degraded.max_delay == plain.max_delay


@pytest.mark.parametrize("name, ports", GRID)
def test_one_concurrent_multicast_equals_plain(name, ports):
    for tree in _grid_trees(name):
        plain = simulate_multicast(tree, ports=ports)
        concurrent = simulate_concurrent_multicasts([tree], ports=ports)
        assert concurrent.delays[0] == plain.delays
        assert concurrent.avg_delays[0] == plain.avg_delay


@pytest.mark.parametrize("name, ports", GRID)
def test_zero_background_rate_matches_plain(name, ports):
    """Equal to within rounding only: the loaded driver measures each
    delay from a start time of ``horizon / 4``, and subtracting it
    rounds."""
    for tree in _grid_trees(name):
        plain = simulate_multicast(tree, ports=ports)
        loaded = simulate_multicast_under_load(tree, ports=ports, background_rate=0.0)
        assert loaded.background_messages == 0
        assert loaded.delays.keys() == plain.delays.keys()
        for node, delay in plain.delays.items():
            assert abs(loaded.delays[node] - delay) <= 1e-15 * delay
