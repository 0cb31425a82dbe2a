"""Tests for routing functions and deadlock analysis.

E-cube routing's deadlock freedom is what lets the paper ignore
deadlock; these tests make that argument executable and then *break*
it with an unordered minimal routing function, producing and detecting
a genuine circular wait in the simulator.
"""

from __future__ import annotations

import pytest

from repro.core.paths import ResolutionOrder, ecube_arcs
from repro.simulator.deadlock import (
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
    waiting_cycle,
)
from repro.simulator.engine import Simulator
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import Timings
from repro.simulator.routing import (
    ecube_routing,
    random_minimal_routing,
    validate_route,
)


class TestRoutingFunctions:
    def test_ecube_matches_paths_module(self):
        route = ecube_routing()
        for u in range(16):
            for v in range(16):
                assert route(u, v) == ecube_arcs(u, v)

    def test_ecube_ascending(self):
        route = ecube_routing(ResolutionOrder.ASCENDING)
        assert route(0b0101, 0b1110) == ecube_arcs(
            0b0101, 0b1110, ResolutionOrder.ASCENDING
        )

    def test_random_minimal_is_minimal(self):
        from repro.core.addressing import hamming

        route = random_minimal_routing(seed=1)
        for u in range(16):
            for v in range(16):
                arcs = route(u, v)
                assert len(arcs) == hamming(u, v)
                validate_route(u, v, arcs)

    def test_random_minimal_deterministic_per_seed(self):
        pairs = [(0, 15), (3, 12), (5, 10)]
        a = [random_minimal_routing(7)(u, v) for u, v in pairs]
        b = [random_minimal_routing(7)(u, v) for u, v in pairs]
        assert a == b

    def test_validate_route_rejects_bad_walks(self):
        with pytest.raises(ValueError):
            validate_route(0, 3, [(0, 0), (0, 1)])  # disconnected
        with pytest.raises(ValueError):
            validate_route(0, 0, [(0, 0), (1, 0), (0, 0)])  # channel reuse
        with pytest.raises(ValueError):
            validate_route(0, 3, [(0, 0)])  # wrong endpoint


class TestDependencyGraph:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ecube_is_deadlock_free(self, n):
        assert is_deadlock_free(n, ecube_routing())
        assert is_deadlock_free(n, ecube_routing(ResolutionOrder.ASCENDING))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ecube_has_no_cycle_witness(self, n):
        assert find_dependency_cycle(n, ecube_routing()) is None

    def test_random_minimal_has_cycles(self):
        cycle = find_dependency_cycle(3, random_minimal_routing(seed=0))
        assert cycle is not None
        assert len(cycle) >= 2

    def test_random_minimal_witness_is_pinned(self):
        """The search order is fixed, so the witness is too."""
        assert find_dependency_cycle(3, random_minimal_routing(seed=0)) == [
            (0, 1), (2, 2), (6, 0), (7, 2), (3, 1), (1, 0),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_witness_is_a_closed_walk_of_dependencies(self, n, seed):
        graph = channel_dependency_graph(n, random_minimal_routing(seed=seed))
        cycle = find_dependency_cycle(n, random_minimal_routing(seed=seed))
        assert is_deadlock_free(n, random_minimal_routing(seed=seed)) == (cycle is None)
        if cycle is None:
            return
        assert len(set(cycle)) == len(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in graph[a], f"{a} -> {b} is not a dependency"

    def test_graph_node_count(self):
        g = channel_dependency_graph(3, ecube_routing())
        assert len(g) == 3 * 8  # n * 2^n directed channels

    def test_ecube_edges_descend_dimensions(self):
        g = channel_dependency_graph(4, ecube_routing())
        edges = [(a, b) for a, successors in g.items() for b in successors]
        assert edges  # the check below is not vacuous
        for (u, d1), (v, d2) in edges:
            assert d1 > d2  # descending resolution: strictly decreasing


class TestLiveDeadlock:
    def _ring_deadlock_network(self):
        """Four worms in a 2-cube chasing each other around the cycle
        00 -> 01 -> 11 -> 10 -> 00, each needing the channel the next
        one holds.  Slow transfer keeps all of them in flight."""
        sim = Simulator()
        t = Timings(t_setup=0, t_recv=0, t_byte=1000.0, t_hop=1.0)
        # custom routes forming a cycle: each worm travels two hops
        # around the ring (minimal in a 2-cube, but unordered)
        ring = [0b00, 0b01, 0b11, 0b10]
        routes = {}
        for i in range(4):
            a, b, c = ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]
            routes[(a, c)] = [
                (a, (a ^ b).bit_length() - 1),
                (b, (b ^ c).bit_length() - 1),
            ]
        net = WormholeNetwork(
            sim, 2, timings=t, route=lambda u, v: list(routes[(u, v)])
        )
        for i in range(4):
            a, c = ring[i], ring[(i + 2) % 4]
            net.inject(net.make_worm(a, c, size=10))
        return sim, net

    def test_deadlock_detected(self):
        sim, net = self._ring_deadlock_network()
        sim.run()
        # no progress possible: quiescence check fails ...
        with pytest.raises(AssertionError):
            net.assert_quiescent()
        # ... and the wait-for graph contains a genuine cycle: worm 3
        # waits for worm 0, 0 for 1, 1 for 2 and 2 for 3
        assert waiting_cycle(net) == [3, 0, 1, 2]

    def test_no_waiting_cycle_under_ecube(self):
        sim = Simulator()
        net = WormholeNetwork(sim, 4, timings=Timings(0, 0, 1000.0, 1.0))
        for dst in (0b1100, 0b1011, 0b0111, 0b1111):
            net.inject(net.make_worm(0, dst, 10))
        # mid-flight: some worms blocked, but never circularly
        sim.run(until=5.0)
        assert waiting_cycle(net) is None
        sim.run()
        net.assert_quiescent()
