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
from typing import Iterable, Sequence

from repro.core.addressing import hamming, require_address
from repro.core.contention import ContentionReport, Unicast, check_rows
from repro.core.paths import ResolutionOrder, arc_id_routes
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
    """A tree of unicasts implementing one multicast operation.

    The sends are kept as columns indexed by ``seq``: ``_src``, ``_dst``
    and ``_chain`` (each send's address field), plus ``_by_sender``,
    each sender's seqs in issue order.  The scheduler, the verifiers and
    the simulate drivers read the columns; :attr:`sends` and
    :meth:`sends_from` build :class:`Send` records on demand.
    """

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
        # one test for a plain int in range, else require_address decides
        self._nodes = nodes = 1 << n
        for d in self.destinations:
            if type(d) is not int or not 0 <= d < nodes:
                require_address(d, n, "destination")
        if self.source in self.destinations:
            raise ValueError("source must not be among the destinations")
        self.order = order
        self._src: list[int] = []
        self._dst: list[int] = []
        self._chain: list[tuple[int, ...]] = []
        self._by_sender: dict[int, list[int]] = {}

    # -- construction -------------------------------------------------

    def add_send(self, src: int, dst: int, chain: Sequence[int] = ()) -> Send:
        """Append a forwarding action (in the sender's issue order)."""
        nodes = self._nodes
        if not (type(src) is type(dst) is int and 0 <= src < nodes and 0 <= dst < nodes):
            require_address(src, self.n, "sender")
            require_address(dst, self.n, "receiver")
        if src == dst:
            raise ValueError(f"node {src} cannot send to itself")
        chain = tuple(chain)
        return Send(src, dst, self._append(src, dst, chain), chain)

    def _append(self, src: int, dst: int, chain: tuple[int, ...]) -> int:
        """Record one send, unchecked, and return its seq.

        For builders whose addresses were validated already: a chain
        that this tree and ``relative_chain`` checked, or the sends of
        another tree.
        """
        seq = len(self._src)
        self._src.append(src)
        self._dst.append(dst)
        self._chain.append(chain)
        self._by_sender.setdefault(src, []).append(seq)
        return seq

    # -- structure ----------------------------------------------------

    @property
    def sends(self) -> list[Send]:
        """All forwarding actions in global construction order."""
        return [
            Send(src, dst, seq, chain)
            for seq, (src, dst, chain) in enumerate(zip(self._src, self._dst, self._chain))
        ]

    def sends_from(self, node: int) -> list[Send]:
        """The sends issued by ``node``, in issue order."""
        dst, chain = self._dst, self._chain
        return [Send(node, dst[i], i, chain[i]) for i in self._by_sender.get(node, ())]

    @property
    def nodes_receiving(self) -> set[int]:
        """All nodes that receive a copy of the message."""
        return set(self._dst)

    @property
    def relay_nodes(self) -> set[int]:
        """Nodes whose *CPU* handles the message without being a
        destination (empty for all of the paper's wormhole algorithms)."""
        involved = set(self._by_sender).union(self._dst)
        return involved - self.destinations - {self.source}

    def parent_of(self, node: int) -> int | None:
        for src, dst in zip(self._src, self._dst):
            if dst == node:
                return src
        return None

    def depth(self) -> int:
        """Height of the tree in unicast hops (not physical hops)."""
        depth = {self.source: 0}
        changed = True
        best = 0
        # sends are appended parent-before-child by every builder, so a
        # single forward pass suffices; verify and fall back otherwise.
        for src, dst in zip(self._src, self._dst):
            if src not in depth:
                changed = False
                break
            depth[dst] = depth[src] + 1
            best = max(best, depth[dst])
        if changed:
            return best
        # generic fixpoint for adversarially-ordered trees (tests only)
        depth = {self.source: 0}
        remaining = list(zip(self._src, self._dst))
        while remaining:
            progressed = False
            rest = []
            for src, dst in remaining:
                if src in depth:
                    depth[dst] = depth[src] + 1
                    progressed = True
                else:
                    rest.append((src, dst))
            if not progressed:
                raise ValueError("multicast tree is not connected to the source")
            remaining = rest
        return max(depth.values(), default=0)

    def total_hops(self) -> int:
        """Total physical channel-hops across all unicasts (traffic)."""
        return sum(map(hamming, self._src, self._dst))

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
        with trace_spans.span("schedule.greedy", sends=len(self._src), limit=limit) as sp:
            steps = self._greedy_steps(limit)
            if sp is not None:
                sp.set(max_step=max(steps, default=0))
        return Schedule(self, ports, steps)

    def _greedy_steps(self, limit: int) -> list[int]:
        """The greedy pass behind :meth:`schedule`: each send's step, by seq.

        Nodes are visited in the order they receive; each node's sends,
        in issue order, take the earliest step after a port frees whose
        arcs are disjoint from that step's.
        """
        routes = arc_id_routes(self.n, self.order)
        shift = routes.shift
        dst_of = self._dst
        by_sender = self._by_sender
        arcs_by_step: dict[int, set[int]] = {}
        steps = [0] * len(dst_of)  # 0: not placed (a placed send's step is >= 1)
        heap: list[tuple[int, int, int]] = [(0, -1, self.source)]
        seen: set[int] = set()
        while heap:
            r, _, node = heapq.heappop(heap)
            if node in seen:
                continue
            seen.add(node)
            seqs = by_sender.get(node, ())
            port_free = [r] * min(limit, len(seqs))  # never before r
            base = node << shift  # see ArcIdRoutes
            for seq in seqs:
                dst = dst_of[seq]
                arcs = [base ^ q for q in routes[node ^ dst]]
                s = heapq.heappop(port_free) + 1
                while True:
                    used = arcs_by_step.get(s)
                    if used is None or used.isdisjoint(arcs):
                        break
                    s += 1
                steps[seq] = s
                heapq.heappush(port_free, s)
                if used is None:
                    arcs_by_step[s] = set(arcs)
                else:
                    used.update(arcs)
                heapq.heappush(heap, (s, seq, dst))

        unplaced = steps.count(0)
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
    _steps: list[int] = field(repr=False)  # each send's step, by seq

    def _rows(self) -> list[tuple[int, int, int]]:
        """Every send as a ``(step, src, dst)`` row, by step order."""
        return sorted(zip(self._steps, self.tree._src, self.tree._dst))

    @property
    def unicasts(self) -> list[Unicast]:
        """The schedule as ``(src, dst, step)`` records, by step order."""
        return [Unicast(src, dst, step) for step, src, dst in self._rows()]

    def step_of(self, send: Send) -> int:
        seq = send.seq
        if not 0 <= seq < len(self._steps):
            raise KeyError(seq)
        return self._steps[seq]

    @property
    def max_step(self) -> int:
        """Number of steps for the multicast to complete (0 if empty)."""
        return max(self._steps, default=0)

    @property
    def dest_steps(self) -> dict[int, int]:
        """Step in which each receiving node obtains the message."""
        return dict(zip(self.tree._dst, self._steps))

    def check_contention(self) -> ContentionReport:
        """Independently verify Definition 4 on this schedule.

        The verifier reads ``(step, src, dst)`` rows; :class:`Unicast`
        records are built only for the violations it reports.
        """
        tree = self.tree
        with trace_spans.span("verify.contention", n=tree.n, sends=len(tree._src)) as sp:
            rows = self._rows()
            report = check_rows(
                tree.source,
                rows,
                tree.order,
                lambda i: Unicast(rows[i][1], rows[i][2], rows[i][0]),
            )
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
