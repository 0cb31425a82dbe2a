"""Unit tests for the host model (CPU setup, injection ports, receive
time) that :class:`~repro.simulator.run.Machine` runs for every node."""

from __future__ import annotations

import pytest

from repro.simulator.message import WormState
from repro.simulator.params import Timings
from repro.simulator.run import Machine


def make_machine(port_limit=2, timings=Timings(t_setup=10, t_recv=5, t_byte=1.0, t_hop=0)):
    received = []

    def on_receive(worm):
        received.append((worm.dst, worm.uid))

    return Machine(4, timings, port_limit, on_receive), received


class TestCpuSetupSerialization:
    def test_sends_issued_t_setup_apart(self):
        machine, _ = make_machine(port_limit=4)
        machine.send(0, [(1, 10, None), (2, 10, None), (4, 10, None)])
        machine.sim.run()
        inject_times = sorted(w.t_injected for w in machine.network.worms)
        assert inject_times == pytest.approx([10.0, 20.0, 30.0])

    def test_second_batch_waits_for_cpu(self):
        machine, _ = make_machine(port_limit=4)
        machine.send(0, [(1, 10, None)])
        machine.send(0, [(2, 10, None)])  # CPU busy until t=10
        machine.sim.run()
        times = sorted(w.t_injected for w in machine.network.worms)
        assert times == pytest.approx([10.0, 20.0])

    def test_ready_time_respected(self):
        machine, _ = make_machine()
        machine.sim.schedule(100.0, machine.send, 0, [(1, 10, None)])
        machine.sim.run()
        assert machine.network.worms[0].t_injected == pytest.approx(110.0)


class TestPortLimits:
    def test_third_send_waits_for_port(self):
        machine, _ = make_machine(port_limit=2)
        machine.send(0, [(1, 100, None), (2, 100, None), (4, 100, None)])
        machine.sim.run()
        third = machine.network.worms[2]
        # worm 0 injected at 10, delivered at 110; the third send's setup
        # finished at t=30 but no port was free until t=110
        assert third.t_injected == pytest.approx(110.0)

    def test_release_port_reinjects_fifo(self):
        machine, _ = make_machine(port_limit=1)
        machine.send(0, [(1, 50, None), (2, 50, None), (4, 50, None)])
        machine.sim.run()
        order = [(w.t_injected, w.dst) for w in machine.network.worms]
        assert order == sorted(order)
        assert [dst for _, dst in order] == [1, 2, 4]

    def test_an_aborted_worm_frees_its_port_before_on_aborted(self):
        seen = []

        def on_aborted(machine, worm):
            seen.append((worm.uid, machine.sim.now, [w.dst for w in machine.network.worms]))

        machine = Machine(
            4, Timings(t_setup=10, t_recv=5, t_byte=1.0, t_hop=15), 1, lambda worm: None,
            on_aborted=on_aborted,
        )
        machine.network.fail_arc((2, 0))  # the second hop of 0 -> 3
        machine.send(0, [(3, 50, None), (1, 50, None)])
        machine.sim.run()
        first, second = machine.network.worms
        # injected at 10, the header meets the dead channel at 25; the
        # second send, ready at 20, took the freed port before the
        # handler ran
        assert first.state is WormState.ABORTED
        assert second.t_injected == pytest.approx(25.0)
        assert seen == [(0, 25.0, [3, 1])]


class TestReceiveSide:
    def test_recv_overhead_applied(self):
        machine, received = make_machine()
        machine.send(0, [(1, 10, None)])
        machine.sim.run()
        w = machine.network.worms[0]
        assert w.state is WormState.RECEIVED
        # injected 10, 1 hop t_hop=0, 10 bytes -> delivered 20, +5 recv
        assert w.t_received == pytest.approx(25.0)
        assert received == [(1, w.uid)]

    def test_the_receiver_issues_the_sends_on_receive_returns(self):
        timings = Timings(t_setup=10, t_recv=5, t_byte=1.0, t_hop=0)
        machine = Machine(4, timings, 1, lambda worm: [(3, 10, None)] if worm.dst == 1 else None)
        machine.send(0, [(1, 10, None)])
        machine.sim.run()
        first, relay = machine.network.worms
        assert (relay.src, relay.dst) == (1, 3)
        # received at 25, then one setup
        assert relay.t_injected == pytest.approx(35.0)

    def test_bad_source_rejected_with_the_worm_message(self):
        machine, _ = make_machine()
        with pytest.raises(ValueError, match="worm source 16 out of range"):
            machine.send(16, [(1, 10, None)])
        with pytest.raises(TypeError, match="worm source must be an int"):
            machine.send(1.0, [(1, 10, None)])
