"""Degraded simulation: abort/retry accounting, timed faults, deadlines,
stall classification, and the zero-fault bit-identity regression."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultScenario,
    LinkFault,
    simulate_degraded_multicast,
)
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import capture
from repro.simulator.run import simulate_multicast

DESTS_6 = [5, 13, 21, 31, 38, 42, 57, 63]
#: kills W-sort's first-step sends out of node 0 (dims 5 and 4)
TWO_LINKS = FaultScenario(6, links=(LinkFault(0, 5), LinkFault(0, 4)))


class TestZeroFaultRegression:
    """With no faults the degraded driver is bit-identical to the plain
    simulator -- the fault machinery must cost nothing unless faults
    exist."""

    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    def test_bit_identical_delays_and_events(self, name):
        tree = get_algorithm(name).build_tree(6, 0, DESTS_6)
        plain = simulate_multicast(tree)
        degraded = simulate_degraded_multicast(tree, None)
        assert degraded.delays == plain.delays
        assert degraded.events == plain.events
        assert degraded.total_blocked_time == plain.total_blocked_time
        assert degraded.completion_time == plain.completion_time

    def test_empty_scenario_same_as_none(self):
        tree = get_algorithm("wsort").build_tree(5, 0, [1, 7, 19, 30])
        a = simulate_degraded_multicast(tree, None)
        b = simulate_degraded_multicast(tree, FaultScenario(5))
        assert a.delays == b.delays and a.events == b.events

    def test_zero_fault_counters_stay_zero(self):
        tree = get_algorithm("ucube").build_tree(4, 0, [1, 6, 11, 14])
        res = simulate_degraded_multicast(tree, None)
        assert res.aborted_worms == 0
        assert res.retries == 0
        assert res.gave_up == 0
        assert res.undelivered == ()
        assert res.deadlock["verdict"] == "clear"


class TestAbortRetryAccounting:
    def test_static_faults_abort_and_recover(self):
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        res = simulate_degraded_multicast(tree, TWO_LINKS)
        # exactly the two sends crossing the dead links bounce, once each
        assert res.aborted_worms == 2
        assert res.retries == 2
        assert res.gave_up == 0
        assert res.delivered == frozenset(DESTS_6)
        assert res.delivery_ratio == 1.0
        assert res.undelivered == ()

    def test_retried_delivery_is_later_than_fault_free(self):
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        plain = simulate_multicast(tree)
        res = simulate_degraded_multicast(tree, TWO_LINKS)
        assert res.completion_time > plain.completion_time

    def test_timed_fault_strikes_before_acquisition(self):
        # single unicast 0 -> 3 in a 2-cube, descending path 0 -> 2 -> 3;
        # the first arc dies at t=10us, well before the ~85us send setup
        # completes, so the header aborts at acquisition and the retry
        # detours through node 1
        tree = get_algorithm("ucube").build_tree(2, 0, [3])
        scenario = FaultScenario(2, links=(LinkFault(0, 1, t_fail=10.0),))
        res = simulate_degraded_multicast(tree, scenario)
        assert res.aborted_worms == 1
        assert res.retries == 1
        assert res.delivered == frozenset([3])
        # timed faults are invisible to the static reachability view
        assert res.unreachable == ()

    def test_gave_up_when_no_surviving_route(self):
        # both of node 0's outgoing links die mid-run: the abort handler
        # finds no detour and abandons the send
        tree = get_algorithm("ucube").build_tree(2, 0, [3])
        scenario = FaultScenario(
            2, links=(LinkFault(0, 0, t_fail=10.0), LinkFault(0, 1, t_fail=10.0))
        )
        res = simulate_degraded_multicast(tree, scenario)
        assert res.aborted_worms == 1
        assert res.retries == 0
        assert res.gave_up == 1
        assert res.undelivered == (3,)
        assert res.delivery_ratio == 0.0

    def test_max_retries_zero_gives_up_immediately(self):
        tree = get_algorithm("ucube").build_tree(2, 0, [3])
        scenario = FaultScenario(2, links=(LinkFault(0, 1),))
        res = simulate_degraded_multicast(tree, scenario, max_retries=0)
        assert res.aborted_worms == 1
        assert res.retries == 0
        assert res.gave_up == 1
        assert res.undelivered == (3,)


class TestDeadline:
    def test_deadline_reports_instead_of_raising(self):
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        res = simulate_degraded_multicast(tree, None, deadline_us=100.0)
        assert res.deadline_us == 100.0
        assert res.sim_time_us <= 100.0
        assert set(res.undelivered) == set(DESTS_6)
        assert res.delivery_ratio == 0.0

    @pytest.mark.parametrize(
        "bad, rule",
        [
            pytest.param({"deadline_us": 0.0}, "deadline_us must be > 0", id="deadline-zero"),
            pytest.param({"deadline_us": -5.0}, "deadline_us must be > 0", id="deadline-negative"),
            pytest.param(
                {"deadline_us": float("nan")}, "deadline_us must be > 0", id="deadline-nan"
            ),
            pytest.param({"max_retries": -1}, "max_retries must be >= 0", id="retries-negative"),
            pytest.param({"backoff_us": -1.0}, "backoff_us must be >= 0", id="backoff-negative"),
            pytest.param(
                {"backoff_us": float("nan")}, "backoff_us must be >= 0", id="backoff-nan"
            ),
            pytest.param(
                {"backoff_cap_us": -1.0}, "backoff_cap_us must be >= 0", id="backoff-cap-negative"
            ),
            pytest.param(
                {"backoff_cap_us": float("nan")},
                "backoff_cap_us must be >= 0",
                id="backoff-cap-nan",
            ),
        ],
    )
    def test_out_of_range_arguments_rejected(self, bad, rule):
        """A NaN deadline ran as if there were none, a negative one
        delivered nothing, and a negative retry cap was taken, all
        without an error.  A negative or NaN backoff failed in the
        kernel at the first abort, and a NaN cap was ignored."""
        tree = get_algorithm("wsort").build_tree(4, 0, [1, 2])
        with pytest.raises(ValueError, match=rule):
            simulate_degraded_multicast(tree, None, **bad)

    def test_generous_deadline_changes_nothing(self):
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        plain = simulate_degraded_multicast(tree, TWO_LINKS)
        bounded = simulate_degraded_multicast(tree, TWO_LINKS, deadline_us=1e9)
        assert bounded.delays == plain.delays
        assert bounded.undelivered == ()


class TestFaultObservability:
    def test_metrics_counters(self):
        reg = MetricsRegistry()
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        simulate_degraded_multicast(tree, TWO_LINKS, metrics=reg)
        snap = reg.snapshot()
        assert snap["sim.faults.dead_arcs"]["value"] == 4  # 2 links, both arcs
        assert snap["sim.faults.aborted_worms"]["value"] == 2
        assert snap["sim.faults.retries"]["value"] == 2
        assert snap["sim.faults.gave_up"]["value"] == 0
        assert snap["sim.faults.undelivered"]["value"] == 0
        assert snap["sim.runs"]["value"] == 1  # shared namespace still fed

    def test_telemetry_record_carries_fault_fields_and_verdict(self):
        tree = get_algorithm("wsort").build_tree(6, 0, DESTS_6)
        with capture() as mem:
            res = simulate_degraded_multicast(tree, TWO_LINKS, label="test/wsort")
        [record] = mem.records
        assert record.kind == "degraded-multicast"
        assert record.algorithm == "test/wsort"
        assert record.extra["failed_links"] == 2
        assert record.extra["aborted_worms"] == res.aborted_worms == 2
        assert record.extra["retries"] == 2
        assert record.extra["delivery_ratio"] == 1.0
        # the stall classifier's verdict is embedded so JSONL consumers
        # can distinguish fault stalls from contention
        assert record.extra["deadlock"]["verdict"] == "clear"
        assert record.extra["deadlock"] == res.deadlock
        # round-trips through JSON
        assert record.from_json(record.to_json()).extra == record.extra

    def test_scenario_mismatch_rejected(self):
        tree = get_algorithm("wsort").build_tree(4, 0, [1, 2])
        with pytest.raises(ValueError, match="-cube"):
            simulate_degraded_multicast(tree, FaultScenario(5))


class TestStallClassifier:
    """White-box checks of ``stall_report``'s holder-chain taxonomy."""

    @staticmethod
    def _ring_network():
        """Four worms in a circular wait on a 2-cube ring (the classic
        non-E-cube deadlock from examples/deadlock_demo.py)."""
        from repro.simulator import Simulator, Timings, WormholeNetwork

        ring = [0b00, 0b01, 0b11, 0b10]
        routes = {}
        for i in range(4):
            a, b, c = ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]
            routes[(a, c)] = [
                (a, (a ^ b).bit_length() - 1),
                (b, (b ^ c).bit_length() - 1),
            ]
        sim = Simulator()
        net = WormholeNetwork(
            sim,
            2,
            timings=Timings(t_setup=0, t_recv=0, t_byte=1000.0, t_hop=1.0),
            route=lambda u, v: list(routes[(u, v)]),
        )
        for i in range(4):
            net.inject(net.make_worm(ring[i], ring[(i + 2) % 4], size=10))
        sim.run()
        return net

    def test_deadlock_verdict(self):
        from repro.simulator import stall_report

        net = self._ring_network()
        report = stall_report(net)
        assert report["verdict"] == "deadlock"
        assert len(report["deadlocked_worms"]) == 4
        assert report["waiting_cycle"]

    def test_fault_stall_distinguished_from_deadlock(self):
        from repro.simulator import stall_report

        net = self._ring_network()
        # freeze-frame: mark one blocked worm's next channel dead, as if
        # it had just failed -- every chain now ends at a dead arc
        blocked = [w for w in net.worms if w.t_delivered < 0]
        victim = blocked[0]
        net._dead_arcs.add(victim.arcs[victim.hop])
        report = stall_report(net)
        assert report["verdict"] == "fault-stall"
        assert victim.uid in report["fault_stalled_worms"]
        assert report["deadlocked_worms"] == []

    def test_clear_verdict_after_clean_run(self):
        from repro.simulator import stall_report

        tree = get_algorithm("wsort").build_tree(4, 0, [1, 6, 11])
        res = simulate_degraded_multicast(tree, None)
        assert stall_report(res.network)["verdict"] == "clear"
