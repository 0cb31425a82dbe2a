"""End-to-end simulator tests: multicast trees through the timed model,
including the STEP cross-validation against the abstract scheduler."""

from __future__ import annotations

import gc
import math
import statistics
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.analysis.calibration import measure_unicast_samples
from repro.collectives.graph import simulate_comm
from repro.collectives.scatter import scatter_graph
from repro.faults import FaultScenario, LinkFault, simulate_degraded_multicast
from repro.multicast import (
    ALL_PORT,
    ONE_PORT,
    Combine,
    Maxport,
    UCube,
    WSort,
    k_port,
)
from repro.simulator import (
    NCUBE2,
    STEP,
    Timings,
    simulate_concurrent_multicasts,
    simulate_multicast,
    simulate_multicast_under_load,
)
from repro.simulator.network import WormholeNetwork
from repro.simulator.run import _mean
from tests.conftest import multicast_cases

FIG3_DESTS = [0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111]
PAPER_ALGS = [UCube(), Maxport(), Combine(), WSort()]


class TestStepCrossValidation:
    """Under STEP timings (unit cost per unicast, zero overheads) the
    simulated delivery time of every destination must equal its step in
    the greedy schedule -- the simulator and the analytical scheduler
    are two independent implementations of the same semantics."""

    @pytest.mark.parametrize("alg", PAPER_ALGS, ids=lambda a: a.name)
    def test_fig3_destinations(self, alg):
        tree = alg.build_tree(4, 0, FIG3_DESTS)
        sched = tree.schedule(ALL_PORT)
        res = simulate_multicast(tree, size=1, timings=STEP, ports=ALL_PORT, trace=True)
        for d in FIG3_DESTS:
            assert res.delays[d] == pytest.approx(sched.dest_steps[d])
        assert res.network.trace.overlapping_pairs() == []

    @pytest.mark.parametrize("alg", PAPER_ALGS, ids=lambda a: a.name)
    @given(case=multicast_cases(max_n=5))
    def test_random_all_port(self, alg, case):
        n, source, dests = case
        tree = alg.build_tree(n, source, dests)
        sched = tree.schedule(ALL_PORT)
        res = simulate_multicast(tree, size=1, timings=STEP, ports=ALL_PORT)
        for d in dests:
            assert res.delays[d] == pytest.approx(sched.dest_steps[d])

    @pytest.mark.parametrize("alg", PAPER_ALGS, ids=lambda a: a.name)
    @given(case=multicast_cases(max_n=4))
    def test_random_one_port(self, alg, case):
        n, source, dests = case
        tree = alg.build_tree(n, source, dests)
        sched = tree.schedule(ONE_PORT)
        res = simulate_multicast(tree, size=1, timings=STEP, ports=ONE_PORT)
        for d in dests:
            assert res.delays[d] == pytest.approx(sched.dest_steps[d])


class TestZeroBlocking:
    """Maxport and W-sort route every sender's unicasts into disjoint
    subcubes, so their worms must never block, for any message size or
    port model -- the strongest run-time expression of Theorems 1/2/6."""

    @pytest.mark.parametrize("alg", [Maxport(), WSort()], ids=lambda a: a.name)
    @given(case=multicast_cases(max_n=6))
    def test_no_blocking_all_port(self, alg, case):
        n, source, dests = case
        tree = alg.build_tree(n, source, dests)
        res = simulate_multicast(tree, size=512, timings=NCUBE2, ports=ALL_PORT)
        assert res.total_blocked_time == 0.0

    @pytest.mark.parametrize("alg", PAPER_ALGS, ids=lambda a: a.name)
    @given(case=multicast_cases(max_n=5))
    def test_one_port_never_blocks(self, alg, case):
        """On one-port nodes sends serialize at the injection port, so
        contention-free algorithms show zero *channel* blocking."""
        n, source, dests = case
        tree = alg.build_tree(n, source, dests)
        res = simulate_multicast(tree, size=256, timings=NCUBE2, ports=ONE_PORT)
        assert res.total_blocked_time == 0.0


class TestDelays:
    def test_single_destination_closed_form(self):
        tree = UCube().build_tree(4, 0, [0b1111])
        res = simulate_multicast(tree, size=4096, timings=NCUBE2, ports=ALL_PORT)
        assert res.delays[0b1111] == pytest.approx(NCUBE2.unicast_latency(4096, 4))

    def test_avg_and_max(self):
        tree = WSort().build_tree(4, 0, FIG3_DESTS)
        res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert 0 < res.avg_delay <= res.max_delay
        assert res.max_delay == max(res.delays[d] for d in FIG3_DESTS)
        assert res.completion_time >= res.max_delay

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=300))
    def test_avg_delay_mean_is_statistics_mean(self, values):
        """avg_delay's mean is statistics.mean bit for bit (the service
        and the archived figures print it)."""
        try:
            want = statistics.mean(values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _mean(values)
            return
        got = _mean(values)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_all_port_beats_one_port_on_average(self):
        tree = WSort().build_tree(5, 0, list(range(1, 32)))
        one = simulate_multicast(tree, 4096, NCUBE2, ONE_PORT)
        allp = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert allp.avg_delay < one.avg_delay

    def test_k_port_between_extremes(self):
        tree = WSort().build_tree(5, 0, list(range(1, 32)))
        one = simulate_multicast(tree, 4096, NCUBE2, ONE_PORT).avg_delay
        two = simulate_multicast(tree, 4096, NCUBE2, k_port(2)).avg_delay
        allp = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT).avg_delay
        assert allp <= two <= one

    def test_message_size_scales_delay(self):
        tree = WSort().build_tree(4, 0, FIG3_DESTS)
        small = simulate_multicast(tree, 64, NCUBE2, ALL_PORT).max_delay
        large = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT).max_delay
        assert large > small

    def test_deterministic(self):
        tree = Combine().build_tree(5, 3, [1, 2, 8, 9, 17, 30])
        r1 = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        r2 = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert r1.delays == r2.delays

    def test_empty_tree(self):
        from repro.multicast import MulticastTree

        tree = MulticastTree(3, 0, [])
        res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert res.max_delay == 0.0
        assert res.avg_delay == 0.0

    @given(case=multicast_cases(max_n=5))
    def test_every_destination_delivered_once(self, case):
        n, source, dests = case
        tree = Combine().build_tree(n, source, dests)
        res = simulate_multicast(tree, 128, NCUBE2, ALL_PORT)
        assert set(res.delays) == set(dests)
        assert all(res.delays[d] > 0 for d in dests)

    @given(case=multicast_cases(max_n=5))
    def test_ucube_one_port_delay_structure(self, case):
        """One-port U-cube delay grows stepwise: max delay is close to
        max_step * (per-step time) for 4 KB messages."""
        n, source, dests = case
        tree = UCube().build_tree(n, source, dests)
        steps = tree.schedule(ONE_PORT).max_step
        res = simulate_multicast(tree, 4096, NCUBE2, ONE_PORT)
        per_step_min = NCUBE2.t_setup + 4096 * NCUBE2.t_byte + NCUBE2.t_recv
        per_step_max = per_step_min + n * NCUBE2.t_hop
        assert steps * per_step_min * 0.9 <= res.max_delay <= steps * per_step_max * 1.1


class TestFig3dTiming:
    def test_1011_delayed_behind_1100(self):
        """The Fig. 3(d) effect in continuous time: U-cube's worm to 1011
        blocks behind the worm to 1100 on an all-port machine."""
        tree = UCube().build_tree(4, 0, FIG3_DESTS)
        res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert res.total_blocked_time > 0
        assert res.delays[0b1011] > res.delays[0b1100]

    def test_wsort_removes_the_blocking(self):
        tree = WSort().build_tree(4, 0, FIG3_DESTS)
        res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
        assert res.total_blocked_time == 0.0
        u = simulate_multicast(UCube().build_tree(4, 0, FIG3_DESTS), 4096, NCUBE2, ALL_PORT)
        assert res.max_delay < u.max_delay


def _degraded_with_failed_links():
    """A run in which sends abort on a static and a timed dead link and
    are retried."""
    tree = WSort().build_tree(6, 0, [5, 13, 21, 31, 38, 42, 57, 63])
    scenario = FaultScenario(6, links=(LinkFault(0, 5), LinkFault(0, 4, t_fail=50.0)))
    result = simulate_degraded_multicast(tree, scenario)
    assert result.retries > 0 and not result.undelivered
    return result


#: every driver that builds a network, each on a small run
DRIVERS = {
    "simulate_multicast": lambda: simulate_multicast(WSort().build_tree(4, 0, FIG3_DESTS)),
    "simulate_concurrent_multicasts": lambda: simulate_concurrent_multicasts(
        [WSort().build_tree(4, 0, FIG3_DESTS), UCube().build_tree(4, 5, [0, 3, 9, 14])]
    ),
    "simulate_multicast_under_load": lambda: simulate_multicast_under_load(
        WSort().build_tree(4, 0, FIG3_DESTS), background_rate=0.01, horizon=2_000.0
    ),
    "simulate_degraded_multicast-fault-free": lambda: simulate_degraded_multicast(
        WSort().build_tree(4, 0, FIG3_DESTS)
    ),
    "simulate_degraded_multicast-failed-links": _degraded_with_failed_links,
    # stopped at its deadline with all 21 destinations undelivered
    "simulate_degraded_multicast-deadline": lambda: simulate_degraded_multicast(
        WSort().build_tree(6, 0, list(range(3, 64, 3))), deadline_us=100.0
    ),
    "simulate_comm": lambda: simulate_comm(scatter_graph(4, 0, 256)),
    "measure_unicast_samples": lambda: measure_unicast_samples(3, NCUBE2),
}


class TestRunLifetime:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_every_driver_frees_its_network_on_its_last_reference(self, driver, monkeypatch):
        """No handler a network holds closes a cycle back to its run:
        with the cyclic collector off, every network a driver built is
        gone once its result is."""
        networks = []
        init = WormholeNetwork.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            networks.append(weakref.ref(self))

        monkeypatch.setattr(WormholeNetwork, "__init__", recording_init)
        gc.collect()
        gc.disable()
        try:
            result = DRIVERS[driver]()
            assert networks
            del result
            assert [ref() for ref in networks] == [None] * len(networks)
        finally:
            gc.enable()

    def test_finished_run_is_freed_without_the_cyclic_collector(self):
        """No reference cycle holds a run's objects: the network goes as
        soon as its result does, while the cyclic collector is off."""
        tree = WSort().build_tree(4, 0, FIG3_DESTS)
        gc.disable()
        try:
            res = simulate_multicast(tree, 4096, NCUBE2, ALL_PORT)
            network = weakref.ref(res.network)
            del res
            assert network() is None
        finally:
            gc.enable()
