"""Tests for the wormhole network model: latency, blocking, invariants."""

from __future__ import annotations

import pytest

from repro.core.paths import ResolutionOrder
from repro.simulator.engine import Simulator
from repro.simulator.message import WormState
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, STEP, Timings


def make_net(n=4, timings=NCUBE2, trace=True, collect=None):
    sim = Simulator()
    net = WormholeNetwork(sim, n, timings=timings, trace=trace, on_delivered=collect)
    return sim, net


class TestUnblockedLatency:
    def test_single_hop(self):
        sim, net = make_net()
        w = net.make_worm(0, 1, size=100)
        net.inject(w)
        sim.run()
        # t_hop + 100 * t_byte
        assert w.t_delivered == pytest.approx(NCUBE2.t_hop + 100 * NCUBE2.t_byte)
        assert w.state is WormState.DELIVERED
        assert w.blocked_time == 0.0

    def test_distance_insensitivity(self):
        """Wormhole hallmark: for a 4 KB message, 1 hop vs 4 hops differ
        by only 3 * t_hop -- a fraction of a percent."""
        sim1, net1 = make_net()
        w1 = net1.make_worm(0, 0b0001, 4096)
        net1.inject(w1)
        sim1.run()
        sim4, net4 = make_net()
        w4 = net4.make_worm(0, 0b1111, 4096)
        net4.inject(w4)
        sim4.run()
        assert w4.t_delivered - w1.t_delivered == pytest.approx(3 * NCUBE2.t_hop)
        assert (w4.t_delivered - w1.t_delivered) / w1.t_delivered < 0.01

    def test_matches_closed_form(self):
        sim, net = make_net()
        w = net.make_worm(0b0101, 0b1110, 4096)
        net.inject(w)
        sim.run()
        assert w.t_delivered == pytest.approx(NCUBE2.network_time(4096, 3))

    def test_step_timings_unit_latency(self):
        sim, net = make_net(timings=STEP)
        w = net.make_worm(0, 0b1111, size=1)
        net.inject(w)
        sim.run()
        assert w.t_delivered == pytest.approx(1.0)


class TestBlocking:
    def test_two_worms_same_channel_serialize(self):
        sim, net = make_net(timings=STEP)
        a = net.make_worm(0b0000, 0b1100, 1)  # arcs (0,3),(8,2)
        b = net.make_worm(0b0000, 0b1011, 1)  # arcs (0,3),(8,1),(9,1)
        net.inject(a)
        net.inject(b)
        sim.run()
        assert a.t_delivered == pytest.approx(1.0)
        assert b.t_delivered == pytest.approx(2.0)
        assert b.blocked_time == pytest.approx(1.0)
        assert a.blocked_time == 0.0

    def test_fifo_wakeup_order(self):
        sim, net = make_net(timings=STEP)
        worms = [net.make_worm(0, 0b1000 | k, 1) for k in range(3)]
        for w in worms:
            net.inject(w)
        sim.run()
        # all three compete for channel (0, 3); FIFO by injection order
        times = [w.t_delivered for w in worms]
        assert times == sorted(times)
        assert times[0] < times[1] < times[2]

    def test_blocked_worm_holds_upstream_channels(self):
        """A header blocked mid-path keeps its acquired channels busy,
        blocking a third worm that needs them (chained blocking)."""
        timings = Timings(t_setup=0, t_recv=0, t_byte=100.0, t_hop=1.0)
        sim, net = make_net(timings=timings, n=4)
        # a: 8->14 occupies (8,2),(12,1) for a long time
        a = net.make_worm(0b1000, 0b1110, 10)
        net.inject(a)
        # b: 0->14: acquires (0,3), then blocks on (8,2) held by a
        b = net.make_worm(0b0000, 0b1110, 10)
        net.inject(b)
        # c: 0->9: needs (0,3) -- held by the *blocked* b
        c = net.make_worm(0b0000, 0b1001, 10)
        net.inject(c)
        sim.run()
        assert b.blocked_time > 0
        assert c.blocked_time > 0
        # c can only finish after b finishes releasing (0,3)
        assert c.t_delivered > b.t_delivered

    def test_opposite_direction_channels_independent(self):
        """Two messages in opposite directions between neighbors do not
        contend (each direction is its own channel)."""
        sim, net = make_net(timings=STEP)
        a = net.make_worm(0, 1, 1)
        b = net.make_worm(1, 0, 1)
        net.inject(a)
        net.inject(b)
        sim.run()
        assert a.t_delivered == pytest.approx(1.0)
        assert b.t_delivered == pytest.approx(1.0)
        assert net.total_blocked_time == 0.0


class TestInvariants:
    def test_trace_no_overlaps(self):
        sim, net = make_net(timings=STEP)
        for dst in (0b1100, 0b1011, 0b0111, 0b0101):
            net.inject(net.make_worm(0, dst, 1))
        sim.run()
        net.assert_quiescent()
        assert net.trace.overlapping_pairs() == []

    def test_quiescence_check_catches_stuck(self):
        sim, net = make_net()
        net.make_worm(0, 1, 10)  # never injected
        with pytest.raises(AssertionError):
            net.assert_quiescent()

    def test_double_injection_rejected(self):
        sim, net = make_net()
        w = net.make_worm(0, 1, 10)
        net.inject(w)
        with pytest.raises(ValueError):
            net.inject(w)

    def test_worm_validation(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.make_worm(0, 0, 10)
        with pytest.raises(ValueError):
            net.make_worm(0, 99, 10)
        with pytest.raises(ValueError):
            net.make_worm(0, 1, 0)

    def test_bad_dimension_rejected(self):
        _, net = make_net(n=2)
        with pytest.raises(ValueError):
            net.fail_arc((0, 5))

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            WormholeNetwork(Simulator(), 0)


class TestResolutionOrder:
    def test_ascending_routes(self):
        sim = Simulator()
        net = WormholeNetwork(sim, 4, timings=STEP, order=ResolutionOrder.ASCENDING)
        w = net.make_worm(0b0101, 0b1110, 1)
        assert [a for a in w.arcs] == [(0b0101, 0), (0b0100, 1), (0b0110, 3)]

    def test_ascending_contention_differs(self):
        """0->3 and 0->1 share their first arc only under ascending
        resolution."""
        sim_d = Simulator()
        net_d = WormholeNetwork(sim_d, 2, timings=STEP)
        net_d.inject(net_d.make_worm(0, 3, 1))
        net_d.inject(net_d.make_worm(0, 1, 1))
        sim_d.run()
        assert net_d.total_blocked_time == 0.0

        sim_a = Simulator()
        net_a = WormholeNetwork(sim_a, 2, timings=STEP, order=ResolutionOrder.ASCENDING)
        net_a.inject(net_a.make_worm(0, 3, 1))
        net_a.inject(net_a.make_worm(0, 1, 1))
        sim_a.run()
        assert net_a.total_blocked_time > 0.0


class TestTimingsValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Timings(t_setup=-1)
        # NaN fails every comparison, so the check is a negated one
        for name in ("t_setup", "t_recv", "t_byte", "t_hop"):
            with pytest.raises(ValueError, match=name):
                Timings(**{name: float("nan")})

    def test_unicast_latency_formula(self):
        t = Timings(t_setup=10, t_recv=20, t_byte=2, t_hop=1)
        assert t.unicast_latency(100, 3) == 10 + 3 + 200 + 20
