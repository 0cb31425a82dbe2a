"""Multicast trees, step scheduling, and the algorithm interface.

A multicast *tree* records which node forwards the message to which
other nodes, and in what local issue order.  A tree says nothing about
timing; a :class:`Schedule` assigns each constituent unicast a discrete
time step under a :class:`~repro.multicast.ports.PortModel`:

- a node can send only in steps strictly after the step in which it
  received the message (the multicast source is ready before step 1);
- a node issues at most ``port_limit`` unicasts per step, in its issue
  order;
- unicasts assigned to the same step must be pairwise arc-disjoint
  (two worms cannot share a channel concurrently) -- this is what
  penalizes U-cube on an all-port machine in Fig. 3(d), where two sends
  from node 0111 need the same outgoing channel and serialize.

The greedy scheduler assigns each unicast the earliest feasible step.
For the paper's algorithms, whose same-step unicasts are arc-disjoint
by construction (Theorems 1-2), the greedy schedule reproduces the step
counts reported in the paper's figures.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

from repro.core.addressing import hamming, require_address
from repro.core.contention import ContentionReport, Unicast, check_contention_free
from repro.core.paths import Arc, ResolutionOrder, ecube_arcs
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs import trace_spans

__all__ = ["MulticastAlgorithm", "MulticastTree", "Schedule", "Send"]


@dataclass(frozen=True, slots=True)
class Send:
    """One forwarding action: ``src`` transmits the message to ``dst``.

    Attributes:
        src: absolute address of the sending node.
        dst: absolute address of the receiving node.
        seq: global construction sequence number (stable tiebreaker).
        chain: the *address field* ``D`` carried with the message -- the
            (absolute) addresses the receiver is responsible for
            delivering to, excluding the receiver itself.
    """

    src: int
    dst: int
    seq: int
    chain: tuple[int, ...] = ()


class MulticastTree:
    """A tree of unicasts implementing one multicast operation."""

    def __init__(
        self,
        n: int,
        source: int,
        destinations: Iterable[int],
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> None:
        self.n = n
        self.source = require_address(source, n, "source")
        self.destinations = frozenset(destinations)
        for d in self.destinations:
            require_address(d, n, "destination")
        if self.source in self.destinations:
            raise ValueError("source must not be among the destinations")
        self.order = order
        self._sends: list[Send] = []
        self._by_sender: dict[int, list[Send]] = {}

    # -- construction -------------------------------------------------

    def add_send(self, src: int, dst: int, chain: Sequence[int] = ()) -> Send:
        """Append a forwarding action (in the sender's issue order)."""
        require_address(src, self.n, "sender")
        require_address(dst, self.n, "receiver")
        if src == dst:
            raise ValueError(f"node {src} cannot send to itself")
        send = Send(src, dst, len(self._sends), tuple(chain))
        self._sends.append(send)
        self._by_sender.setdefault(src, []).append(send)
        return send

    # -- structure ----------------------------------------------------

    @property
    def sends(self) -> list[Send]:
        """All forwarding actions in global construction order."""
        return list(self._sends)

    def sends_from(self, node: int) -> list[Send]:
        """The sends issued by ``node``, in issue order."""
        return list(self._by_sender.get(node, ()))

    @property
    def nodes_receiving(self) -> set[int]:
        """All nodes that receive a copy of the message."""
        return {s.dst for s in self._sends}

    @property
    def relay_nodes(self) -> set[int]:
        """Nodes whose *CPU* handles the message without being a
        destination (empty for all of the paper's wormhole algorithms)."""
        involved = {s.src for s in self._sends} | self.nodes_receiving
        return involved - self.destinations - {self.source}

    def parent_of(self, node: int) -> int | None:
        for s in self._sends:
            if s.dst == node:
                return s.src
        return None

    def depth(self) -> int:
        """Height of the tree in unicast hops (not physical hops)."""
        depth = {self.source: 0}
        changed = True
        best = 0
        # sends are appended parent-before-child by every builder, so a
        # single forward pass suffices; verify and fall back otherwise.
        for s in self._sends:
            if s.src not in depth:
                changed = False
                break
            depth[s.dst] = depth[s.src] + 1
            best = max(best, depth[s.dst])
        if changed:
            return best
        # generic fixpoint for adversarially-ordered trees (tests only)
        depth = {self.source: 0}
        remaining = list(self._sends)
        while remaining:
            progressed = False
            rest = []
            for s in remaining:
                if s.src in depth:
                    depth[s.dst] = depth[s.src] + 1
                    progressed = True
                else:
                    rest.append(s)
            if not progressed:
                raise ValueError("multicast tree is not connected to the source")
            remaining = rest
        return max(depth.values(), default=0)

    def total_hops(self) -> int:
        """Total physical channel-hops across all unicasts (traffic)."""
        return sum(hamming(s.src, s.dst) for s in self._sends)

    # -- scheduling ---------------------------------------------------

    def schedule(self, ports: PortModel = ALL_PORT) -> "Schedule":
        """Greedily assign each unicast the earliest feasible step.

        Injection ports are interchangeable resources, each held from a
        send's injection until its delivery completes.  A later-issued
        send may overtake an earlier one that is blocked in the network
        -- provided a port is free (this is what all-port DMA hardware
        does); with one port, sends serialize strictly.

        Raises:
            ValueError: if some send's source never receives the message.
        """
        limit = ports.limit(self.n)
        with trace_spans.span("schedule.greedy", sends=len(self._sends), limit=limit) as sp:
            steps = self._greedy_steps(limit)
            if sp is not None:
                sp.set(max_step=max(steps.values(), default=0))
        return Schedule(self, ports, steps)

    def _greedy_steps(self, limit: int) -> dict[int, int]:
        """The greedy pass behind :meth:`schedule`, as ``seq -> step``.

        Nodes are visited in the order they receive; each node's sends,
        in issue order, take the earliest step after a port frees whose
        arcs are disjoint from that step's.
        """
        order = self.order
        arcs_by_step: dict[int, set[Arc]] = {}
        steps: dict[int, int] = {}
        heap: list[tuple[int, int, int]] = [(0, -1, self.source)]
        seen: set[int] = set()
        while heap:
            r, _, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            node_sends = self._by_sender.get(node, ())
            port_free = [r] * min(limit, len(node_sends))
            heapq.heapify(port_free)
            for send in node_sends:
                arcs = ecube_arcs(send.src, send.dst, order)
                s = max(r + 1, heapq.heappop(port_free) + 1)
                while True:
                    used = arcs_by_step.get(s)
                    if used is None or used.isdisjoint(arcs):
                        break
                    s += 1
                steps[send.seq] = s
                heapq.heappush(port_free, s)
                arcs_by_step.setdefault(s, set()).update(arcs)
                heapq.heappush(heap, (s, send.seq, send.dst))

        unplaced = len(self._sends) - len(steps)
        if unplaced:
            raise ValueError(
                f"tree is not connected: {unplaced} send(s) from nodes "
                "that never receive the message"
            )
        return steps


@dataclass(slots=True)
class Schedule:
    """A step assignment for every unicast of a multicast tree."""

    tree: MulticastTree
    ports: PortModel
    _steps: dict[int, int] = field(repr=False)

    @property
    def unicasts(self) -> list[Unicast]:
        """The schedule as ``(src, dst, step)`` records, by step order."""
        out = [
            Unicast(s.src, s.dst, self._steps[s.seq])
            for s in self.tree.sends
        ]
        out.sort(key=attrgetter("step", "src", "dst"))
        return out

    def step_of(self, send: Send) -> int:
        return self._steps[send.seq]

    @property
    def max_step(self) -> int:
        """Number of steps for the multicast to complete (0 if empty)."""
        return max(self._steps.values(), default=0)

    @property
    def dest_steps(self) -> dict[int, int]:
        """Step in which each receiving node obtains the message."""
        return {s.dst: self._steps[s.seq] for s in self.tree.sends}

    def check_contention(self) -> ContentionReport:
        """Independently verify Definition 4 on this schedule."""
        with trace_spans.span(
            "verify.contention", n=self.tree.n, sends=len(self.tree.sends)
        ) as sp:
            report = check_contention_free(self.tree.source, self.unicasts, self.tree.order)
            if sp is not None:
                sp.set(ok=report.ok)
            return report


class MulticastAlgorithm(ABC):
    """Interface shared by all multicast tree builders."""

    #: short machine-readable name (used by the registry and the CLI)
    name: str = "abstract"

    @abstractmethod
    def build_tree(
        self,
        n: int,
        source: int,
        destinations: Sequence[int],
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> MulticastTree:
        """Construct the multicast tree for one operation."""

    def schedule(
        self,
        n: int,
        source: int,
        destinations: Sequence[int],
        ports: PortModel = ALL_PORT,
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> Schedule:
        """Convenience: build the tree and schedule it in one call."""
        return self.build_tree(n, source, destinations, order).schedule(ports)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
