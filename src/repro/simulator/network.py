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

One dict, keyed by arc id (:func:`repro.core.paths.arc_id`), maps each
held channel to its holder -- or, once a header waits there, to a deque
of the holder and its waiters; a free channel has no entry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.addressing import require_address
from repro.core.paths import Arc, ResolutionOrder, arc_id, arc_id_routes, arc_of, ecube_arcs
from repro.simulator.engine import Simulator
from repro.simulator.message import Worm, WormState
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.trace import ChannelTrace

__all__ = ["WormholeNetwork"]

# the states set once per worm, bound to module names: reading a member
# off an Enum class takes a slow attribute lookup every time
_PENDING, _INJECTING, _DELIVERED = WormState.PENDING, WormState.INJECTING, WormState.DELIVERED


def _require_arc(arc: Arc, n: int) -> None:
    node, dim = arc
    require_address(node, n, "channel tail")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TypeError(f"channel dimension must be an int, got {type(dim).__name__}")
    if not 0 <= dim < n:
        raise ValueError(f"channel dimension {dim} out of range")


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
            (see :meth:`fail_arc`); the host model frees the sender's port
            here, and the faults driver retries.

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
        # table routes are valid by construction; others are checked per arc
        self._routes = arc_id_routes(n, order) if route is None else None
        self._nodes = 1 << n
        self._tracing = trace
        #: arc id -> holding worm, or a deque of the holder and its waiters
        self._owners: dict[int, Worm | deque[Worm]] = {}
        self._dead_arcs: set[Arc] = set()
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
        n, nodes = self.n, self._nodes
        if not (type(src) is type(dst) is int and 0 <= src < nodes and 0 <= dst < nodes):
            require_address(src, n, "worm source")
            require_address(dst, n, "worm destination")
        if src == dst:
            raise ValueError("a worm needs distinct endpoints")
        if size < 1:
            raise ValueError(f"message size must be >= 1 byte, got {size}")
        routes = self._routes
        if arcs is None and routes is not None:
            route, base = routes[src ^ dst], src << routes.shift
        else:
            route, base = [], 0
            for arc in self.route(src, dst) if arcs is None else arcs:
                _require_arc(arc, n)
                route.append(arc_id(arc, n))
        worms = self.worms
        worm = Worm(len(worms), src, dst, size, route, base, n, payload)  # uid: issue order
        worm.t_created = self.sim._now
        worms.append(worm)
        return worm

    def inject(self, worm: Worm) -> None:
        """Start the worm's header into the network *now*."""
        if worm.state is not _PENDING:
            raise ValueError(f"worm {worm.uid} already injected")
        worm.state = _INJECTING
        worm.t_injected = self.sim._now
        self._advance(worm)

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
        a = arc_id(arc, self.n)
        slot = self._owners.get(a)
        if type(slot) is deque:
            self._owners[a] = slot.popleft()
            while slot:
                waiter = slot.popleft()
                waiter.mark_unblocked(self.sim.now)
                self._abort(waiter)

    def fail_link(self, node: int, dim: int) -> None:
        """Fail the bidirectional link ``{node, node ^ (1 << dim)}``
        (both directed arcs); a bad argument fails the first arc's check."""
        self.fail_arc((node, dim))
        self.fail_arc((node ^ (1 << dim), dim))

    def _abort(self, worm: Worm) -> None:
        """Abort a worm on a dead channel: release everything it holds."""
        worm.state = WormState.ABORTED
        self.aborted_count += 1
        held = worm.held
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
        route = worm.route
        hop = worm.hop
        if hop == len(route):
            # header at the destination router; the body pipelines in
            delay, then = worm.size * self.timings.t_byte, self._deliver
        else:
            a = worm.base ^ route[hop]
            if self._dead_arcs and arc_of(a, self.n) in self._dead_arcs:
                self._abort(worm)
                return
            slot = self._owners.setdefault(a, worm)  # a free channel is worm's now
            if slot is not worm and (type(slot) is not deque or slot[0] is not worm):
                worm.mark_blocked(sim._now, arc_of(a, self.n)[1])  # busy, not handed to worm
                if type(slot) is deque:
                    slot.append(worm)
                else:
                    self._owners[a] = deque((slot, worm))
                return
            worm.hop = worm.held = hop + 1
            if self._tracing:
                self.trace.occupy(arc_of(a, self.n), worm.uid, sim._now)
            delay, then = self.timings.t_hop, self._advance
        sim._due[sim._now + delay].append((then, (worm,)))

    def _deliver(self, worm: Worm) -> None:
        worm.state = _DELIVERED
        worm.t_delivered = self.sim._now
        # tail has drained: release every held channel, waking waiters
        self._release(worm, worm.held)
        if self.on_delivered is not None:
            self.on_delivered(worm)

    def _release(self, worm: Worm, held: int) -> None:
        """Free the first ``held`` channels of ``worm``'s route, each
        passing to its first waiter, whose header then moves on."""
        now = self.sim._now
        owners = self._owners
        base = worm.base
        for q in worm.route[:held]:
            a = base ^ q
            slot = owners.pop(a)
            if slot is not worm:  # a deque: worm, then the headers waiting
                assert type(slot) is deque and slot[0] is worm
                slot.popleft()
            if self._tracing:
                self.trace.release(arc_of(a, self.n), worm.uid, now)
            if slot is not worm and slot:
                owners[a] = slot
                nxt = slot[0]  # the first waiter holds it now
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
        for a in self._owners:  # free channels have no entry
            raise AssertionError(f"channel {arc_of(a, self.n)} not quiescent")
        self.trace.finish()
