"""Deadlock analysis: channel-dependency graphs (Dally & Seitz).

Wormhole routing is deadlock-free iff the *channel dependency graph* --
a directed graph over channels with an edge ``c1 -> c2`` whenever some
route uses ``c2`` immediately after ``c1`` -- is acyclic.  E-cube
routing orders channels by dimension, so its dependency graph is
trivially acyclic; that is what licenses the paper (and this library)
to ignore deadlock entirely.  This module makes the argument
executable:

- :func:`channel_dependency_graph` builds the graph for any routing
  function over all node pairs;
- :func:`is_deadlock_free` checks acyclicity;
- :func:`find_dependency_cycle` returns a witness cycle for routing
  functions that are *not* safe (e.g. random minimal routing).

A run-time companion, :func:`waiting_cycle`, inspects a live network
and reports an actual circular wait among blocked worms -- used by the
failure-injection tests to show a real deadlock happening under unsafe
routing.  Both graphs are insertion-ordered dicts searched by one
depth-first search, so a witness never depends on hash order.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable, Mapping, TypeVar

from repro.core.paths import Arc, arc_of
from repro.simulator.message import WormState
from repro.simulator.network import WormholeNetwork
from repro.simulator.routing import RoutingFunction

__all__ = [
    "channel_dependency_graph",
    "find_dependency_cycle",
    "is_deadlock_free",
    "stall_report",
    "waiting_cycle",
]

_Node = TypeVar("_Node")


def _find_cycle(graph: Mapping[_Node, Iterable[_Node]]) -> list[_Node] | None:
    """The first cycle a depth-first search of ``graph`` meets, or None.

    The search starts from each key in order and follows successors in
    their order (a successor that is not a key has none); the witness
    is the search path from the node it reached a second time.
    """
    finished: set[_Node] = set()
    for start in graph:
        if start in finished:
            continue
        path = [start]
        on_path = {start}
        successors = [iter(graph[start])]
        while successors:
            for node in successors[-1]:
                if node in on_path:
                    return path[path.index(node):]
                if node not in finished:
                    path.append(node)
                    on_path.add(node)
                    successors.append(iter(graph.get(node, ())))
                    break
            else:  # every successor searched: the node is done
                finished.add(path[-1])
                on_path.discard(path.pop())
                successors.pop()
    return None


def channel_dependency_graph(n: int, route: RoutingFunction) -> dict[Arc, dict[Arc, None]]:
    """The channel dependency graph of ``route`` over all ``(src, dst)``
    pairs of the ``n``-cube.

    Maps every channel to its successors, in the order routes first use
    each dependency (a dict rather than a set, so that order is fixed).

    Note: for *randomized* routing functions this samples one route per
    pair; safety claims then hold only for the sampled behaviour, while
    a found cycle is already a genuine counterexample.
    """
    size = 1 << n
    graph: dict[Arc, dict[Arc, None]] = {(u, d): {} for u in range(size) for d in range(n)}
    for src in range(size):
        for dst in range(size):
            if src == dst:
                continue
            arcs = route(src, dst)
            for a, b in zip(arcs, arcs[1:]):
                graph[a][b] = None
    return graph


def is_deadlock_free(n: int, route: RoutingFunction) -> bool:
    """True iff the channel dependency graph is acyclic."""
    return find_dependency_cycle(n, route) is None


def find_dependency_cycle(n: int, route: RoutingFunction) -> list[Arc] | None:
    """A witness cycle of channels, or None if the graph is acyclic."""
    return _find_cycle(channel_dependency_graph(n, route))


def waiting_cycle(network: WormholeNetwork) -> list[int] | None:
    """Detect a circular wait among currently blocked worms.

    Builds the wait-for graph: worm ``w`` waits for the worm occupying
    the channel at the head of ``w``'s queue position.  Returns the
    worm uids on a cycle, or None.  On an idle or live network this is
    always None; under an unsafe routing function it is the post-mortem
    evidence of deadlock.
    """
    waits_for: dict[int, tuple[int]] = {}
    for slot in network._owners.values():
        if isinstance(slot, deque):  # the holder, then the headers waiting on it
            for waiter in islice(slot, 1, None):
                waits_for[waiter.uid] = (slot[0].uid,)
    return _find_cycle(waits_for)


def stall_report(network: WormholeNetwork) -> dict:
    """Classify every blocked worm and render a JSON-ready verdict.

    Telemetry companion to :func:`waiting_cycle`: for each worm whose
    header is waiting on a busy channel, walk the holder chain and
    decide *why* it is not progressing:

    - ``fault-stalled`` -- the chain ends at a worm whose next channel
      is dead (or the worm itself waits on one): the stall is caused by
      an injected failure, not by traffic;
    - ``deadlocked`` -- the chain revisits a worm (a circular wait);
    - ``contention`` -- the chain ends at a worm that is actively
      progressing; the wait is ordinary wormhole contention.

    The returned dict is embedded verbatim in exported
    :class:`~repro.obs.telemetry.RunRecord` JSONL (``extra["deadlock"]``,
    see docs/OBSERVABILITY.md), so a fault-stalled cycle is
    distinguishable from ordinary contention offline.  On a quiescent
    network every count is zero and the verdict is ``"clear"``.
    """
    dead = network.dead_arcs
    n = network.n
    blocked = [
        w
        for w in network.worms
        if w.state is WormState.INJECTING and w._blocked_since >= 0
    ]
    fault_stalled: list[int] = []
    deadlocked: list[int] = []
    contention: list[int] = []
    for w in blocked:
        seen = {w.uid}
        cur = w
        kind = "contention"
        while True:
            a = cur.base ^ cur.route[cur.hop]
            if arc_of(a, n) in dead:
                kind = "fault-stalled"
                break
            holder = network._owners.get(a)
            if isinstance(holder, deque):
                holder = holder[0]
            if holder is None or holder._blocked_since < 0:
                break  # head of the chain is progressing: plain contention
            if holder.uid in seen:
                kind = "deadlocked"
                break
            seen.add(holder.uid)
            cur = holder
        {"fault-stalled": fault_stalled, "deadlocked": deadlocked, "contention": contention}[
            kind
        ].append(w.uid)
    if deadlocked:
        verdict = "deadlock"
    elif fault_stalled:
        verdict = "fault-stall"
    elif blocked:
        verdict = "contention"
    else:
        verdict = "clear"
    cycle = waiting_cycle(network)
    return {
        "verdict": verdict,
        "blocked_worms": len(blocked),
        "fault_stalled_worms": sorted(fault_stalled),
        "deadlocked_worms": sorted(deadlocked),
        "contention_worms": sorted(contention),
        "waiting_cycle": cycle,
        "dead_arcs": sorted(list(a) for a in dead),
    }
