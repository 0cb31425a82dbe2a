"""Flit-level reference simulator.

MultiSim's contribution [11] was simulating wormhole networks
*efficiently* -- i.e. above the flit level -- and validating that
abstraction against real hardware.  This module plays the role of the
ground truth for our own abstraction: a worm is simulated flit by flit,
with finite flit buffers at each router and genuine backpressure, so
that the channel-holding model of :mod:`repro.simulator.network` can be
cross-validated against it (``tests/simulator/test_flitlevel.py``).

Model
-----
A unicast of ``F`` flits follows its path's channel sequence
``c_0 .. c_{h-1}`` through buffer *positions* ``0 .. h``: position 0 is
the source's injection queue (unbounded), positions ``1 .. h-1`` are
router flit buffers of capacity ``buffer_flits``, position ``h`` is the
destination (unbounded).  Channel ``c_i`` moves one flit from position
``i`` to ``i+1`` per ``t_flit``, the header flit additionally paying
``t_hop`` routing delay; a channel is owned by one worm from the moment
its header is granted the channel until the tail flit crosses it, with
FIFO granting.  Backpressure is exact: a flit moves only into free
buffer space, so a blocked header stalls the worm's whole pipeline.

This model is O(F * h) events per worm -- orders of magnitude slower
than the channel-holding model, which is the point: it exists to be
checked against, not to run the 10-cube sweeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.paths import Arc, ResolutionOrder, ecube_arcs
from repro.simulator.engine import Simulator
from repro.simulator.params import NCUBE2, Timings

__all__ = ["FlitLevelNetwork", "FlitWorm", "simulate_tree_flitlevel"]


@dataclass(slots=True)
class FlitWorm:
    """One unicast simulated flit-by-flit."""

    uid: int
    src: int
    dst: int
    flits: int
    arcs: list[Arc]

    #: flits resident at each position (len == hops + 1)
    at: list[int] = field(default_factory=list)
    #: flits that have crossed each channel so far (len == hops)
    crossed: list[int] = field(default_factory=list)
    #: channels currently owned (prefix of the path)
    owned: int = 0
    #: index of the channel the header is waiting for, or None
    waiting_for: int | None = None
    t_injected: float = -1.0
    t_delivered: float = -1.0

    @property
    def hops(self) -> int:
        return len(self.arcs)

    def head_position(self) -> int:
        """Furthest position any flit has reached."""
        for i in range(self.hops, -1, -1):
            if self.at[i] > 0:
                return i
        return 0


class _FlitChannel:
    __slots__ = ("owner", "queue", "transfer_scheduled")

    def __init__(self) -> None:
        self.owner: FlitWorm | None = None
        self.queue: deque[FlitWorm] = deque()
        self.transfer_scheduled = False


class FlitLevelNetwork:
    """A hypercube simulated at flit granularity.

    Args:
        sim: event kernel.
        n: cube dimension.
        timings: ``t_byte`` is interpreted as the per-flit transfer time
            (one byte per flit), ``t_hop`` as the header routing delay.
        buffer_flits: router buffer capacity per channel (wormhole
            routing's defining "small" number; default 2).
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        timings: Timings = NCUBE2,
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
        buffer_flits: int = 2,
    ) -> None:
        if buffer_flits < 1:
            raise ValueError("router buffers need at least one flit slot")
        self.sim = sim
        self.n = n
        self.timings = timings
        self.order = order
        self.buffer_flits = buffer_flits
        #: optional callback fired when a worm's last flit arrives
        self.on_delivered = None
        self._channels: dict[Arc, _FlitChannel] = {}
        self.worms: list[FlitWorm] = []

    # -- injection -------------------------------------------------------

    def inject(self, src: int, dst: int, flits: int) -> FlitWorm:
        """Start a unicast of ``flits`` flits now.  Returns its record."""
        if src == dst:
            raise ValueError("unicast endpoints must differ")
        if flits < 1:
            raise ValueError("a worm needs at least one flit")
        worm = FlitWorm(
            uid=len(self.worms),
            src=src,
            dst=dst,
            flits=flits,
            arcs=ecube_arcs(src, dst, self.order),
        )
        worm.at = [flits] + [0] * worm.hops
        worm.crossed = [0] * worm.hops
        worm.t_injected = self.sim.now
        self.worms.append(worm)
        self._request(worm, 0)
        return worm

    def channel(self, arc: Arc) -> _FlitChannel:
        ch = self._channels.get(arc)
        if ch is None:
            ch = self._channels[arc] = _FlitChannel()
        return ch

    # -- ownership -------------------------------------------------------

    def _request(self, worm: FlitWorm, i: int) -> None:
        """Worm's header requests channel ``i``."""
        ch = self.channel(worm.arcs[i])
        if ch.owner is None:
            ch.owner = worm
            worm.owned = i + 1
            worm.waiting_for = None
            self._kick(worm, i)
        else:
            worm.waiting_for = i
            ch.queue.append(worm)

    def _release(self, worm: FlitWorm, i: int) -> None:
        ch = self.channel(worm.arcs[i])
        assert ch.owner is worm
        ch.owner = None
        if ch.queue:
            nxt = ch.queue.popleft()
            assert nxt.waiting_for is not None
            self._request(nxt, nxt.waiting_for)

    # -- flit movement ---------------------------------------------------

    def _can_transfer(self, worm: FlitWorm, i: int) -> bool:
        """Can channel ``i`` (owned by worm) move a flit right now?"""
        if i >= worm.owned:
            return False
        if worm.at[i] == 0:
            return False
        if worm.crossed[i] >= worm.flits:
            return False
        if i + 1 < worm.hops and worm.at[i + 1] >= self.buffer_flits:
            return False
        return True

    def _kick(self, worm: FlitWorm, i: int) -> None:
        """(Re)schedule channel ``i``'s next transfer if it can proceed."""
        ch = self.channel(worm.arcs[i])
        if ch.transfer_scheduled or ch.owner is not worm:
            return
        if not self._can_transfer(worm, i):
            return
        ch.transfer_scheduled = True
        is_header = worm.crossed[i] == 0
        delay = self.timings.t_byte + (self.timings.t_hop if is_header else 0.0)
        self.sim.schedule(delay, self._complete_transfer, worm, i)

    def _complete_transfer(self, worm: FlitWorm, i: int) -> None:
        ch = self.channel(worm.arcs[i])
        ch.transfer_scheduled = False
        worm.at[i] -= 1
        worm.at[i + 1] += 1
        worm.crossed[i] += 1
        header_arrived = worm.crossed[i] == 1 and i + 1 == worm.owned
        if header_arrived and i + 1 < worm.hops:
            self._request(worm, i + 1)
        if worm.crossed[i] == worm.flits:
            # tail has crossed channel i: release it
            self._release(worm, i)
        if i + 1 == worm.hops and worm.at[worm.hops] == worm.flits:
            worm.t_delivered = self.sim.now
            if self.on_delivered is not None:
                self.on_delivered(worm)
        # movement may unblock this channel again and the one upstream
        self._kick(worm, i)
        if i > 0:
            self._kick(worm, i - 1)
        if i + 1 < worm.hops:
            self._kick(worm, i + 1)

    # -- instrumentation ---------------------------------------------------

    def assert_quiescent(self) -> None:
        for w in self.worms:
            if w.t_delivered < 0:
                raise AssertionError(f"worm {w.uid} ({w.src}->{w.dst}) undelivered")
        for arc, ch in self._channels.items():
            if ch.owner is not None or ch.queue:
                raise AssertionError(f"channel {arc} not quiescent")


def simulate_tree_flitlevel(tree, flits: int, timings: Timings = NCUBE2, buffer_flits: int = 2):
    """Run a whole multicast tree at flit granularity (no CPU model).

    Each node's forwards are injected the moment its own copy fully
    arrives.  Returns ``{destination: delivery_time}``.  Intended for
    validation at small message sizes -- O(flits x hops) events per
    unicast.
    """
    from repro.simulator.engine import Simulator

    sim = Simulator()
    net = FlitLevelNetwork(sim, tree.n, timings=timings, order=tree.order,
                           buffer_flits=buffer_flits)
    delivered: dict[int, float] = {}
    dst, by_sender = tree._dst, tree._by_sender

    def on_delivered(worm: FlitWorm) -> None:
        delivered[worm.dst] = sim.now
        for i in by_sender.get(worm.dst, ()):
            net.inject(worm.dst, dst[i], flits)

    net.on_delivered = on_delivered
    for i in by_sender.get(tree.source, ()):
        net.inject(tree.source, dst[i], flits)
    sim.run()
    net.assert_quiescent()
    missing = tree.destinations - delivered.keys()
    if missing:
        raise AssertionError(f"flit-level multicast never reached {sorted(missing)}")
    return delivered
