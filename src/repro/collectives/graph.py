"""Dependency graphs of sized unicasts, and their timed execution.

A :class:`CommGraph` generalizes a multicast tree: every send has its
own message size, may depend on *several* prior receptions (a reduce
node combines all children before forwarding), and may carry a set of
abstract data *blocks* whose final placement the tests verify.

Execution semantics mirror :func:`repro.simulator.run.simulate_multicast`:
a node's CPU issues a send ``t_setup`` after all of the send's
dependencies have been received (and any earlier sends' setups have
finished); injection waits for a free port; ports are held until
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Iterable

from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs.metrics import MetricsRegistry
from repro.simulator.message import Worm
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.run import Machine

__all__ = ["CommGraph", "CommResult", "CommSend", "simulate_comm"]


@dataclass(frozen=True, slots=True)
class CommSend:
    """One sized unicast of a collective operation.

    Attributes:
        sid: unique id within the graph.
        src/dst: endpoints.
        size: bytes on the wire.
        deps: ids of sends that must have been *received by* ``src``
            before this send can be issued (empty: ready at t=0).
        blocks: abstract data blocks carried (for placement checks).
    """

    sid: int
    src: int
    dst: int
    size: int
    deps: tuple[int, ...] = ()
    blocks: frozenset[int] = frozenset()


class CommGraph:
    """A dependency DAG of unicasts implementing one collective."""

    def __init__(self, n: int, order: ResolutionOrder = ResolutionOrder.DESCENDING) -> None:
        self.n = n
        self.order = order
        self.sends: list[CommSend] = []
        #: blocks every node holds before the operation starts
        self.initial_blocks: dict[int, frozenset[int]] = {}

    def add(
        self,
        src: int,
        dst: int,
        size: int,
        deps: Iterable[int] = (),
        blocks: Iterable[int] = (),
    ) -> int:
        """Append a send; returns its id for use in later ``deps``."""
        deps = tuple(deps)
        for d in deps:
            if not 0 <= d < len(self.sends):
                raise ValueError(f"dependency {d} does not exist yet")
            if self.sends[d].dst != src:
                raise ValueError(
                    f"send from {src} cannot depend on send {d}, which "
                    f"delivers to {self.sends[d].dst}"
                )
        sid = len(self.sends)
        self.sends.append(CommSend(sid, src, dst, size, deps, frozenset(blocks)))
        return sid

    def seed(self, node: int, blocks: Iterable[int]) -> None:
        """Declare the blocks ``node`` holds before the operation."""
        self.initial_blocks[node] = self.initial_blocks.get(node, frozenset()) | frozenset(blocks)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self.sends)

    def relabel(self, fn, n: int | None = None) -> "CommGraph":
        """A copy of the graph with every node address mapped by ``fn``.

        Used to run a ``k``-dimensional collective inside a subcube of a
        larger machine (``fn`` embeds the small addresses).  Dependencies
        and block ids are preserved.
        """
        out = CommGraph(self.n if n is None else n, self.order)
        for node, blocks in self.initial_blocks.items():
            out.seed(fn(node), blocks)
        for s in self.sends:
            out.add(fn(s.src), fn(s.dst), s.size, deps=s.deps, blocks=s.blocks)
        return out

    @staticmethod
    def merge(graphs: "list[CommGraph]") -> "CommGraph":
        """Combine independent graphs into one (e.g. collectives running
        concurrently in disjoint subcubes).

        Send ids are re-based; block ids are namespaced by graph index
        (``block | index << 32``) so concurrent operations cannot be
        confused with each other.
        """
        if not graphs:
            raise ValueError("merge requires at least one graph")
        n = graphs[0].n
        order = graphs[0].order
        if any(g.n != n or g.order is not order for g in graphs):
            raise ValueError("merged graphs must share dimension and order")
        out = CommGraph(n, order)
        for gi, g in enumerate(graphs):
            base = len(out.sends)
            tag = gi << 32
            for node, blocks in g.initial_blocks.items():
                out.seed(node, [b | tag for b in blocks])
            for s in g.sends:
                out.add(
                    s.src,
                    s.dst,
                    s.size,
                    deps=tuple(d + base for d in s.deps),
                    blocks=[b | tag for b in s.blocks],
                )
        return out

    def validate(self) -> None:
        """Check block causality: every send only carries blocks its
        source initially held or obtained through its declared
        dependencies.  (Acyclicity is guaranteed by ``add``: a send can
        only depend on already-created sends, so ids are topological.)"""
        have: dict[int, set[int]] = {u: set(b) for u, b in self.initial_blocks.items()}
        for s in self.sends:
            avail = have.setdefault(s.src, set())
            for d in s.deps:
                avail |= set(self.sends[d].blocks)
            if not set(s.blocks) <= avail:
                raise ValueError(f"send {s.sid} carries blocks its source never held")


@dataclass(slots=True)
class CommResult:
    """Outcome of one simulated collective."""

    graph: CommGraph
    timings: Timings
    ports: PortModel
    send_received_at: dict[int, float]  # send id -> CPU receive time at dst
    node_done_at: dict[int, float]  # node -> last CPU receive time
    final_blocks: dict[int, frozenset[int]]
    total_blocked_time: float
    events: int

    @property
    def completion_time(self) -> float:
        """Time at which the whole operation has finished."""
        return max(self.node_done_at.values(), default=0.0)

    @property
    def avg_node_time(self) -> float:
        return mean(self.node_done_at.values()) if self.node_done_at else 0.0


def simulate_comm(
    graph: CommGraph,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    trace: bool = False,
    max_events: int | None = 10_000_000,
    metrics: MetricsRegistry | None = None,
    label: str | None = None,
) -> CommResult:
    """Execute a :class:`CommGraph` on the wormhole network model.

    ``metrics`` and ``label`` mirror
    :func:`repro.simulator.run.simulate_multicast`; with a telemetry
    sink active one ``kind="comm"`` record is emitted per call.
    """
    received_at: dict[int, float] = {}
    node_done: dict[int, float] = {}
    blocks: dict[int, set[int]] = {u: set(b) for u, b in graph.initial_blocks.items()}

    # per send: number of unsatisfied dependencies
    waiting = [len(s.deps) for s in graph.sends]
    dependents: dict[int, list[int]] = {}
    for s in graph.sends:
        for d in s.deps:
            dependents.setdefault(d, []).append(s.sid)

    def on_receive(worm: Worm) -> list[tuple[int, int, int]]:
        """Record the receipt; return the sends it made ready, which the
        receiver issues (``CommGraph.add`` checks that)."""
        sid = worm.payload
        received_at[sid] = node_done[worm.dst] = worm.t_received
        send = graph.sends[sid]
        blocks.setdefault(send.dst, set()).update(send.blocks)
        ready = []
        for dep_sid in dependents.get(sid, ()):
            waiting[dep_sid] -= 1
            if waiting[dep_sid] == 0:
                dep = graph.sends[dep_sid]
                ready.append((dep.dst, dep.size, dep_sid))
        return ready

    machine = Machine(
        graph.n,
        timings,
        ports.limit(graph.n),
        on_receive,
        order=graph.order,
        trace=trace,
    )
    sim, network = machine.sim, machine.network
    first: dict[int, list[tuple[int, int, int]]] = {}
    for s in graph.sends:
        if not s.deps:
            first.setdefault(s.src, []).append((s.dst, s.size, s.sid))
    for src, sends in first.items():
        machine.send(src, sends)
    sim.run(max_events=max_events)
    network.assert_quiescent()

    undelivered = [s.sid for s in graph.sends if s.sid not in received_at]
    if undelivered:
        raise AssertionError(
            f"collective deadlocked: sends never delivered: {undelivered[:10]}"
        )

    result = CommResult(
        graph=graph,
        timings=timings,
        ports=ports,
        send_received_at=received_at,
        node_done_at=node_done,
        final_blocks={u: frozenset(b) for u, b in blocks.items()},
        total_blocked_time=network.total_blocked_time,
        events=sim.events_processed,
    )
    machine.record(
        metrics,
        kind="comm",
        label=label,
        ports=ports,
        size=None,
        delays=node_done.values(),
        completion_us=result.completion_time,
        extra=lambda: {
            "sends": len(graph.sends),
            "total_bytes": graph.total_bytes,
            "completion_us": result.completion_time,
            "avg_node_us": result.avg_node_time,
            "total_blocked_us": result.total_blocked_time,
            "nodes": len(node_done),
        },
    )
    return result
