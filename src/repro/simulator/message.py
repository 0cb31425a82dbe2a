"""Worm (in-flight wormhole message) representation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.paths import Arc, arc_of

__all__ = ["Worm", "WormState"]


class WormState(enum.Enum):
    """Lifecycle of a worm."""

    PENDING = "pending"  # created, waiting for an injection port
    INJECTING = "injecting"  # header advancing / blocked in the network
    DELIVERED = "delivered"  # tail drained at the destination router
    RECEIVED = "received"  # receiving CPU finished its software overhead
    ABORTED = "aborted"  # header hit a dead channel; all held channels released


@dataclass(slots=True)
class Worm:
    """One unicast in flight.

    Attributes:
        uid: unique id (issue order).
        src/dst: endpoint node addresses.
        size: message length in bytes.
        route, base, n: the route's channels in traversal order; channel
            ``i`` has ``n``-cube arc id ``base ^ route[i]`` (E-cube routes
            share :class:`~repro.core.paths.ArcIdRoutes` entries).
        payload: opaque data carried to the receiver (the multicast
            address field, reduction operands, ...).
        hop: index of the next arc the header must acquire; it moves
            on as the header acquires an arc, before crossing it.
        held: number of leading arcs currently held by the worm (equal
            to ``hop`` unless an abort released them).
    """

    uid: int
    src: int
    dst: int
    size: int
    route: Sequence[int]
    base: int
    n: int
    payload: Any = None

    state: WormState = WormState.PENDING
    hop: int = 0
    held: int = 0

    # timestamps (microseconds); -1.0 means "not yet"
    t_created: float = -1.0
    t_injected: float = -1.0
    t_delivered: float = -1.0
    t_received: float = -1.0

    # accumulated time the header spent blocked on busy channels
    blocked_time: float = 0.0
    #: blocked time split by the dimension of the channel waited on
    #: (allocated lazily -- None until the worm first blocks)
    blocked_by_dim: dict[int, float] | None = None
    _blocked_since: float = field(default=-1.0, repr=False)
    _blocked_dim: int = field(default=-1, repr=False)

    @property
    def arcs(self) -> list[Arc]:
        """The route's directed channels as ``(tail, dim)`` pairs."""
        base, n = self.base, self.n
        return [arc_of(base ^ q, n) for q in self.route]

    @property
    def hops(self) -> int:
        """Physical path length."""
        return len(self.route)

    @property
    def network_latency(self) -> float:
        """Injection-to-delivery time (valid once delivered)."""
        if self.t_delivered < 0 or self.t_injected < 0:
            raise ValueError(f"worm {self.uid} not delivered yet")
        return self.t_delivered - self.t_injected

    def mark_blocked(self, now: float, dim: int = -1) -> None:
        self._blocked_since = now
        self._blocked_dim = dim

    def mark_unblocked(self, now: float) -> None:
        if self._blocked_since >= 0:
            span = now - self._blocked_since
            self.blocked_time += span
            if self._blocked_dim >= 0:
                if self.blocked_by_dim is None:
                    self.blocked_by_dim = {}
                self.blocked_by_dim[self._blocked_dim] = (
                    self.blocked_by_dim.get(self._blocked_dim, 0.0) + span
                )
            self._blocked_since = -1.0
            self._blocked_dim = -1
