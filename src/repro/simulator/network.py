"""The wormhole network model: channels, header progression, blocking.

Model (DESIGN.md Section 3): a worm's header acquires the directed
channels of its E-cube path one at a time, spending ``t_hop`` per
acquired hop.  A header that finds a channel busy joins that channel's
FIFO queue while *holding* every channel it already acquired -- the
defining (and costly) property of wormhole switching.  Once the header
reaches the destination router, the body pipelines through at channel
rate, so the tail drains ``size * t_byte`` later; at that instant the
message is delivered and every held channel is released (a conservative
simplification: on real hardware channel ``i`` is released as the tail
*passes* it, a stagger of at most ``hops * t_hop`` which is negligible
against ``size * t_byte`` and can only make the model report *more*
contention, never less).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.addressing import require_address
from repro.core.paths import Arc, ResolutionOrder, ecube_arcs
from repro.simulator.engine import Simulator
from repro.simulator.message import Worm, WormState
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.trace import ChannelTrace

__all__ = ["Channel", "WormholeNetwork"]

# the states set once per worm, bound to module names: reading a member
# off an Enum class takes a slow attribute lookup every time
_PENDING, _INJECTING, _DELIVERED = WormState.PENDING, WormState.INJECTING, WormState.DELIVERED


def _require_arc(arc: Arc, n: int) -> None:
    node, dim = arc
    require_address(node, n, "channel tail")
    if not 0 <= dim < n:
        raise ValueError(f"channel dimension {dim} out of range")


class Channel:
    """One directed channel with single ownership and a FIFO wait queue.

    The queue is an empty tuple until a header first waits here: most
    channels never see a waiter, and every channel lives as long as its
    run, so a deque built for each would cost memory and collector work.
    """

    __slots__ = ("arc", "occupied_by", "queue")

    def __init__(self, arc: Arc) -> None:
        self.arc = arc
        self.occupied_by: Worm | None = None
        self.queue: deque[Worm] | tuple[()] = ()


class WormholeNetwork:
    """An ``n``-cube of wormhole routers driven by a :class:`Simulator`.

    Args:
        sim: the event kernel.
        n: hypercube dimension.
        timings: cost model (defaults to nCUBE-2-like constants).
        order: E-cube resolution order used by all routes.
        trace: record channel occupancies (small overhead; on by default
            in tests, off in large benchmark sweeps).
        on_delivered: callback fired when a worm's tail drains at its
            destination router (before the receiving CPU's ``t_recv``).
        on_aborted: callback fired when a worm aborts on a dead channel
            (see :meth:`fail_arc`); fault-aware drivers hook retries here.

    Channel failures (see docs/FAULTS.md): arcs marked dead via
    :meth:`fail_arc` take effect at *acquisition* time.  A header that
    attempts to acquire a dead channel aborts -- releasing every channel
    it holds, waking the released channels' waiters -- as do headers
    already queued on the channel when it fails.  A worm that acquired a
    channel before the failure completes normally (its flits are already
    in transit).  With no dead arcs, every code path is identical to the
    fault-free network.
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        timings: Timings = NCUBE2,
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
        trace: bool = False,
        on_delivered: Callable[[Worm], None] | None = None,
        route: Callable[[int, int], list[Arc]] | None = None,
        on_aborted: Callable[[Worm], None] | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"hypercube dimension must be >= 1, got {n}")
        self.sim = sim
        self.n = n
        self.timings = timings
        self.order = order
        self.trace = ChannelTrace(enabled=trace)
        self.on_delivered = on_delivered
        self.on_aborted = on_aborted
        #: routing function; defaults to E-cube in the given order.  Any
        #: non-E-cube function forfeits the deadlock-freedom guarantee
        #: (see repro.simulator.deadlock).
        self.route = route if route is not None else (lambda u, v: ecube_arcs(u, v, order))
        self._channels: dict[Arc, Channel] = {}
        self._dead_arcs: set[Arc] = set()
        self._next_uid = 0
        self.worms: list[Worm] = []
        #: number of worms aborted on dead channels so far
        self.aborted_count = 0

    # -- worm creation / injection ------------------------------------

    def make_worm(
        self, src: int, dst: int, size: int, payload=None, arcs: list[Arc] | None = None
    ) -> Worm:
        """Create (but do not inject) a worm for the route ``src -> dst``.

        ``arcs`` overrides the network routing function for this worm
        only (fault-aware drivers use it to re-route retries around dead
        channels).
        """
        require_address(src, self.n, "worm source")
        require_address(dst, self.n, "worm destination")
        if src == dst:
            raise ValueError("a worm needs distinct endpoints")
        if size < 1:
            raise ValueError(f"message size must be >= 1 byte, got {size}")
        worm = Worm(
            self._next_uid,
            src,
            dst,
            size,
            self.route(src, dst) if arcs is None else list(arcs),
            payload,
        )
        worm.t_created = self.sim._now
        self._next_uid += 1
        self.worms.append(worm)
        return worm

    def inject(self, worm: Worm) -> None:
        """Start the worm's header into the network *now*."""
        if worm.state is not _PENDING:
            raise ValueError(f"worm {worm.uid} already injected")
        worm.state = _INJECTING
        worm.t_injected = self.sim._now
        self._advance(worm)

    def channel(self, arc: Arc) -> Channel:
        """The channel ``arc``, created (and validated) on first use."""
        ch = self._channels.get(arc)
        if ch is None:
            _require_arc(arc, self.n)
            ch = self._channels[arc] = Channel(arc)
        return ch

    # -- channel failures ----------------------------------------------

    @property
    def dead_arcs(self) -> frozenset[Arc]:
        """The directed channels currently marked dead."""
        return frozenset(self._dead_arcs)

    def fail_arc(self, arc: Arc) -> None:
        """Mark one directed channel dead, effective immediately.

        Headers queued on the channel abort now; the current occupant
        (if any) completes -- its flits are already in transit -- and
        every later acquisition attempt aborts (see :meth:`_abort`).
        Schedulable as a timed event: ``sim.schedule_at(t, net.fail_arc,
        arc)``.
        """
        _require_arc(arc, self.n)
        self._dead_arcs.add(arc)
        ch = self._channels.get(arc)
        if ch is None:
            return
        while ch.queue:
            waiter = ch.queue.popleft()
            waiter.mark_unblocked(self.sim.now)
            self._abort(waiter)

    def fail_link(self, node: int, dim: int) -> None:
        """Fail the bidirectional link ``{node, node ^ (1 << dim)}``
        (both directed arcs)."""
        self.fail_arc((node, dim))
        self.fail_arc((node ^ (1 << dim), dim))

    def _abort(self, worm: Worm) -> None:
        """Abort a worm on a dead channel: release everything it holds."""
        worm.state = WormState.ABORTED
        worm.t_aborted = self.sim.now
        self.aborted_count += 1
        held = worm.arcs[: worm.held]
        worm.held = 0
        self._release(worm, held)
        if self.on_aborted is not None:
            self.on_aborted(worm)

    # -- header progression -------------------------------------------

    def _advance(self, worm: Worm) -> None:
        """Move the header onto its next channel -- it crosses in
        ``t_hop``, then advances again -- or queue it there if the
        channel is busy; at the destination router, start the body."""
        sim = self.sim
        arcs = worm.arcs
        if worm.hop == len(arcs):
            # header at the destination router; the body pipelines in
            sim._post(worm.size * self.timings.t_byte, self._deliver, worm)
            return
        arc = arcs[worm.hop]
        if self._dead_arcs and arc in self._dead_arcs:
            self._abort(worm)
            return
        ch = self._channels.get(arc)
        if ch is None:
            ch = self.channel(arc)
        if ch.occupied_by is not None:
            worm.mark_blocked(sim._now, arc[1])
            if not ch.queue:
                ch.queue = deque()
            ch.queue.append(worm)
            return
        ch.occupied_by = worm
        worm.held += 1
        worm.hop += 1
        self.trace.occupy(arc, worm.uid, sim._now)
        sim._post(self.timings.t_hop, self._advance, worm)

    def _deliver(self, worm: Worm) -> None:
        worm.state = _DELIVERED
        worm.t_delivered = self.sim._now
        # tail has drained: release every held channel, waking waiters
        self._release(worm, worm.arcs[: worm.held])
        if self.on_delivered is not None:
            self.on_delivered(worm)

    def _release(self, worm: Worm, held: list[Arc]) -> None:
        """Free ``worm``'s channels ``held``, each passing to its first
        waiter, whose header then moves on."""
        now = self.sim._now
        trace = self.trace
        for arc in held:
            ch = self._channels[arc]
            assert ch.occupied_by is worm
            ch.occupied_by = None
            trace.release(arc, worm.uid, now)
            if ch.queue:
                nxt = ch.queue.popleft()
                nxt.mark_unblocked(now)
                self._advance(nxt)

    # -- instrumentation ----------------------------------------------

    @property
    def total_blocked_time(self) -> float:
        """Sum of header blocking time across all worms."""
        return sum(w.blocked_time for w in self.worms)

    def assert_quiescent(self) -> None:
        """After a run: every worm delivered (or aborted on a dead
        channel), every channel free."""
        terminal = (WormState.DELIVERED, WormState.RECEIVED, WormState.ABORTED)
        for w in self.worms:
            if w.state not in terminal:
                raise AssertionError(f"worm {w.uid} ({w.src}->{w.dst}) stuck in {w.state}")
        for ch in self._channels.values():
            if ch.occupied_by is not None or ch.queue:
                raise AssertionError(f"channel {ch.arc} not quiescent")
        self.trace.finish()
