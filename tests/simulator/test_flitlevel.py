"""Tests for the flit-level reference simulator, and cross-validation of
the channel-holding abstraction against it.

This mirrors the paper's own methodology: MultiSim simulated wormhole
networks above the flit level and was validated against real hardware;
our channel-holding model is validated against this exact flit-level
model instead.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.addressing import hamming
from repro.simulator.engine import Simulator
from repro.simulator.flitlevel import FlitLevelNetwork
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, Timings
from tests.conftest import multicast_cases

T = Timings(t_setup=0.0, t_recv=0.0, t_byte=1.0, t_hop=4.0)


def flit_run(injections, n=4, timings=T, buffers=2):
    sim = Simulator()
    net = FlitLevelNetwork(sim, n, timings=timings, buffer_flits=buffers)
    worms = [net.inject(src, dst, flits) for src, dst, flits in injections]
    sim.run()
    net.assert_quiescent()
    return worms


def holding_run(injections, n=4, timings=T):
    sim = Simulator()
    net = WormholeNetwork(sim, n, timings=timings)
    worms = []
    for src, dst, flits in injections:
        w = net.make_worm(src, dst, flits)
        net.inject(w)
        worms.append(w)
    sim.run()
    net.assert_quiescent()
    return worms


class TestSingleWorm:
    def test_pipeline_latency(self):
        """h hops, F flits: header pays (t_flit + t_hop) per hop, the
        remaining flits pipeline at t_flit each."""
        (w,) = flit_run([(0, 0b1111, 16)])
        h, f = 4, 16
        assert w.t_delivered == pytest.approx(h * (1.0 + 4.0) + (f - 1) * 1.0)

    def test_single_flit(self):
        (w,) = flit_run([(0, 1, 1)])
        assert w.t_delivered == pytest.approx(1.0 + 4.0)

    def test_distance_insensitive_for_long_messages(self):
        (w1,) = flit_run([(0, 0b0001, 256)])
        (w4,) = flit_run([(0, 0b1111, 256)])
        assert (w4.t_delivered - w1.t_delivered) / w1.t_delivered < 0.06

    def test_validation_errors(self):
        sim = Simulator()
        net = FlitLevelNetwork(sim, 3)
        with pytest.raises(ValueError):
            net.inject(0, 0, 4)
        with pytest.raises(ValueError):
            net.inject(0, 1, 0)
        with pytest.raises(ValueError):
            FlitLevelNetwork(sim, 3, buffer_flits=0)


class TestBackpressure:
    def test_blocked_header_stalls_pipeline(self):
        """A long worm holding a channel stalls a second worm needing
        it; with tiny buffers the second worm's flits pile up close to
        the source."""
        worms = flit_run(
            [(0b1000, 0b1110, 64), (0b0000, 0b1110, 64)], buffers=1
        )
        a, b = worms
        assert b.t_delivered > a.t_delivered
        # b could not have finished earlier than serially acquiring the
        # shared channel after a's tail passed it
        assert b.t_delivered > 64 * 1.0

    def test_fifo_granting(self):
        worms = flit_run([(0, 8 | k, 32) for k in range(3)])
        times = [w.t_delivered for w in worms]
        assert times == sorted(times)


class TestWholeTreeFlitLevel:
    """Entire multicast trees through the flit-level model."""

    @settings(max_examples=15)
    @given(case=multicast_cases(max_n=4))
    def test_wsort_tree_matches_holding_model(self, case):
        from repro.multicast import ALL_PORT, WSort
        from repro.simulator.flitlevel import simulate_tree_flitlevel
        from repro.simulator.run import simulate_multicast

        n, source, dests = case
        tree = WSort().build_tree(n, source, dests)
        fl = simulate_tree_flitlevel(tree, flits=32, timings=T)
        hl = simulate_multicast(tree, size=32, timings=T, ports=ALL_PORT)
        for d in dests:
            assert fl[d] >= hl.delays[d] - 1e-9
            # accumulated pipeline-fill slack: bounded by the total hops
            # of d's forwarding chain times (t_flit + t_hop)
            assert fl[d] <= hl.delays[d] + tree.total_hops() * (T.t_byte + T.t_hop)

    def test_ucube_fig3_ordering_preserved(self):
        """At flit level the Fig. 3(d) serialization still delays 1011
        behind 1100."""
        from repro.multicast import UCube
        from repro.simulator.flitlevel import simulate_tree_flitlevel

        tree = UCube().build_tree(
            4, 0, [0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111]
        )
        fl = simulate_tree_flitlevel(tree, flits=64, timings=T)
        assert fl[0b1011] > fl[0b1100]


class TestCrossValidation:
    """The channel-holding model against flit-level ground truth."""

    @settings(max_examples=40)
    @given(case=multicast_cases(max_n=4))
    def test_contention_free_single_worms(self, case):
        """For an isolated unicast the two models differ only by the
        pipeline fill term, bounded by hops * t_flit + hops * t_hop."""
        n, source, dests = case
        dst = dests[0]
        flits = 64
        (fw,) = flit_run([(source, dst, flits)], n=n)
        (hw,) = holding_run([(source, dst, flits)], n=n)
        h = hamming(source, dst)
        assert fw.t_delivered >= hw.t_delivered - 1e-9
        assert fw.t_delivered - hw.t_delivered <= h * (T.t_byte + T.t_hop) + 1e-9

    def test_holding_model_conservative_on_conflicts(self):
        """Under contention the holding model (channels held until full
        delivery) must not report *less* total delay than flit level
        reports for the last delivery."""
        inj = [(0b0000, 0b1100, 64), (0b0000, 0b1011, 64), (0b0111, 0b1100, 64)]
        fl = flit_run(inj)
        hl = holding_run(inj)
        assert max(w.t_delivered for w in hl) >= max(w.t_delivered for w in fl) * 0.9

    @settings(max_examples=20)
    @given(case=multicast_cases(max_n=4, min_dests=2))
    def test_fanout_from_one_source(self, case):
        """Parallel sends on distinct first channels: both models agree
        within the pipeline-fill tolerance on every delivery."""
        from repro.core.addressing import delta

        n, source, dests = case
        # keep only destinations with pairwise distinct first dimensions
        chosen: list[int] = []
        dims: set[int] = set()
        for d in dests:
            dim = delta(source, d)
            if dim not in dims:
                dims.add(dim)
                chosen.append(d)
        inj = [(source, d, 32) for d in chosen]
        fl = flit_run(inj, n=n)
        hl = holding_run(inj, n=n)
        for fw, hw in zip(fl, hl):
            h = hamming(fw.src, fw.dst)
            assert fw.t_delivered >= hw.t_delivered - 1e-9
            assert fw.t_delivered - hw.t_delivered <= h * (T.t_byte + T.t_hop) + 1e-9


def _seeded_grid():
    """40 seeded multicasts per cube dimension n = 3..6, m uniform in
    1..2**n - 1."""
    rng = random.Random(5)
    for n in range(3, 7):
        for _ in range(40):
            source = rng.randrange(1 << n)
            m = rng.randint(1, (1 << n) - 1)
            yield n, source, rng.sample([x for x in range(1 << n) if x != source], m)


class TestPaperTreesFlitLevel:
    """Every paper algorithm's all-port trees, blocked ones included,
    against the flit-level model on one seeded grid."""

    @pytest.mark.parametrize("name", ["ucube", "maxport", "wsort"])
    def test_holding_model_within_pipeline_fill(self, name):
        """The tolerance of test_wsort_tree_matches_holding_model, at
        every destination.  U-cube trees block (78 of these 160), so the
        wait queues are exercised as well."""
        from repro.multicast import ALL_PORT
        from repro.multicast.registry import get_algorithm
        from repro.simulator.flitlevel import simulate_tree_flitlevel
        from repro.simulator.run import simulate_multicast

        alg = get_algorithm(name)
        blocked = 0
        for n, source, dests in _seeded_grid():
            tree = alg.build_tree(n, source, dests)
            fl = simulate_tree_flitlevel(tree, flits=32, timings=T)
            hl = simulate_multicast(tree, size=32, timings=T, ports=ALL_PORT)
            blocked += hl.total_blocked_time > 0
            slack = tree.total_hops() * (T.t_byte + T.t_hop)
            for d in dests:
                assert hl.delays[d] - 1e-9 <= fl[d] <= hl.delays[d] + slack
        if name == "ucube":
            assert blocked >= 40

    def test_combine_holding_model_conservative(self):
        """Under contention the holding model may deliver later than the
        pipeline-fill tolerance allows, so Combine is held to the bound
        of test_holding_model_conservative_on_conflicts instead."""
        from repro.multicast import ALL_PORT
        from repro.multicast.registry import get_algorithm
        from repro.simulator.flitlevel import simulate_tree_flitlevel
        from repro.simulator.run import simulate_multicast

        alg = get_algorithm("combine")
        blocked = 0
        for n, source, dests in _seeded_grid():
            tree = alg.build_tree(n, source, dests)
            fl = simulate_tree_flitlevel(tree, flits=32, timings=T)
            hl = simulate_multicast(tree, size=32, timings=T, ports=ALL_PORT)
            blocked += hl.total_blocked_time > 0
            assert hl.completion_time >= max(fl.values()) * 0.9
        assert blocked >= 40
