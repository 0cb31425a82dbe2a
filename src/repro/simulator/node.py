"""Host (processor) model: software overheads and injection ports.

A node's CPU issues sends sequentially, spending ``t_setup`` on each;
the send then needs a free *injection port*.  The port model gives a
node 1 (one-port), ``k``, or ``n`` (all-port) ports.  A port is held
from injection until the worm is fully delivered -- the same
conservatism as channel release, and exactly what serializes successive
sends on a one-port node the way the paper's step model assumes.

On the receive side a message becomes available to the local processor
(for forwarding or consumption) ``t_recv`` after its tail drains.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.simulator.message import Worm, WormState
from repro.simulator.network import WormholeNetwork

__all__ = ["HostNode"]

# bound to a module name: reading a member off an Enum class is slow
_RECEIVED = WormState.RECEIVED


class HostNode:
    """One processing node attached to the wormhole network.

    Args:
        network: the shared network model.
        address: this node's hypercube address.
        port_limit: concurrent injection limit (from the PortModel).
        on_receive: application callback ``(node, worm)`` fired when the
            local CPU has fully received a message (after ``t_recv``).
    """

    __slots__ = ("network", "sim", "address", "port_limit", "on_receive",
                 "_free_ports", "_awaiting_port", "_cpu_free_at", "sent", "received")

    def __init__(
        self,
        network: WormholeNetwork,
        address: int,
        port_limit: int,
        on_receive: Callable[["HostNode", Worm], None] | None = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.address = address
        self.port_limit = port_limit
        self.on_receive = on_receive

        self._free_ports = port_limit
        # built on first use, like a channel's wait queue
        self._awaiting_port: deque[tuple[int, int, Any]] | tuple[()] = ()
        self._cpu_free_at = 0.0
        self.sent: list[Worm] = []
        self.received: list[Worm] = []

    # -- sending --------------------------------------------------------

    def submit_sends(self, sends: list[tuple[int, int, Any]], ready_time: float) -> None:
        """Queue ``(dst, size, payload)`` sends, CPU-ready at ``ready_time``.

        The CPU performs the per-send setup work back to back starting
        at ``ready_time`` (or when it frees up, if later); each send
        enters the network as soon as its setup is done and a port is
        free.
        """
        sim = self.sim
        now = sim._now
        t_setup = self.network.timings.t_setup
        t = max(ready_time, self._cpu_free_at, now)
        setup_done = self._setup_done
        for send in sends:
            t += t_setup
            # fires at now + (t - now), as schedule_at(t, ...) would
            sim._due[now + (t - now)].append((setup_done, send))
        self._cpu_free_at = t

    def _setup_done(self, dst: int, size: int, payload: Any) -> None:
        """Inject the send if a port is free, else queue it for one."""
        if self._free_ports > 0:
            self._free_ports -= 1
            worm = self.network.make_worm(self.address, dst, size, payload)
            self.sent.append(worm)
            self.network.inject(worm)
        else:
            if not self._awaiting_port:
                self._awaiting_port = deque()
            self._awaiting_port.append((dst, size, payload))

    def release_port(self) -> None:
        """Called when one of this node's worms has been delivered."""
        self._free_ports += 1
        if self._awaiting_port:
            self._setup_done(*self._awaiting_port.popleft())

    # -- receiving ------------------------------------------------------

    def deliver(self, worm: Worm) -> None:
        """Network delivered a worm addressed to this node."""
        if worm.dst != self.address:
            raise ValueError(f"worm {worm.uid} for {worm.dst} delivered to {self.address}")
        sim = self.sim
        sim._due[sim._now + self.network.timings.t_recv].append((self._received, (worm,)))

    def _received(self, worm: Worm) -> None:
        worm.state = _RECEIVED
        worm.t_received = self.sim._now
        self.received.append(worm)
        if self.on_receive is not None:
            self.on_receive(self, worm)
