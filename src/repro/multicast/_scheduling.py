"""Topology-agnostic greedy step scheduling.

The greedy scheduler (earliest feasible step per unicast under port and
arc constraints) does not care what an "arc" is -- only that two
unicasts scheduled in the same step must not share one.  This module
holds the scheduling core so the hypercube trees
(:mod:`repro.multicast.base`) and the mesh trees (:mod:`repro.mesh`)
share a single implementation.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Sequence

from repro.obs import trace_spans

__all__ = ["greedy_steps"]


def greedy_steps(
    source: int,
    sends: Sequence[tuple[int, int, int]],
    arcs_of: Callable[[int, int], Sequence[Hashable]],
    limit: int,
) -> dict[int, int]:
    """Assign each send the earliest feasible step.

    Args:
        source: the node that is ready before step 1.
        sends: ``(seq, src, dst)`` records; per-sender issue order is
            their order in this sequence.
        arcs_of: maps ``(src, dst)`` to the channels the unicast holds.
        limit: injection-port count per node.

    Returns:
        ``seq -> step``.  Semantics (see
        :meth:`repro.multicast.base.MulticastTree.schedule`): a node
        sends only after the step it received in; ports are
        interchangeable resources held until delivery; same-step
        unicasts must be pairwise arc-disjoint.

    Raises:
        ValueError: if some send's source never receives the message.
    """
    with trace_spans.span("schedule.greedy", sends=len(sends), limit=limit) as sp:
        steps = _greedy_steps(source, sends, arcs_of, limit)
        if sp is not None:
            sp.set(max_step=max(steps.values(), default=0))
        return steps


def _greedy_steps(
    source: int,
    sends: Sequence[tuple[int, int, int]],
    arcs_of: Callable[[int, int], Sequence[Hashable]],
    limit: int,
) -> dict[int, int]:
    by_sender: dict[int, list[tuple[int, int, int]]] = {}
    for rec in sends:
        by_sender.setdefault(rec[1], []).append(rec)

    ready: dict[int, int] = {source: 0}
    arcs_by_step: dict[int, set[Hashable]] = {}
    steps: dict[int, int] = {}

    heap: list[tuple[int, int, int]] = [(0, -1, source)]
    seen: set[int] = set()
    while heap:
        r, _, node = heapq.heappop(heap)
        if node in seen:
            continue
        seen.add(node)
        node_sends = by_sender.get(node, ())
        port_free = [r] * min(limit, len(node_sends))
        heapq.heapify(port_free)
        for seq, src, dst in node_sends:
            arcs = arcs_of(src, dst)
            s = max(r + 1, heapq.heappop(port_free) + 1)
            while True:
                used = arcs_by_step.get(s)
                if used is None or used.isdisjoint(arcs):
                    break
                s += 1
            steps[seq] = s
            heapq.heappush(port_free, s)
            arcs_by_step.setdefault(s, set()).update(arcs)
            ready[dst] = s
            heapq.heappush(heap, (s, seq, dst))

    unplaced = [rec for rec in sends if rec[0] not in steps]
    if unplaced:
        raise ValueError(
            f"tree is not connected: {len(unplaced)} send(s) from nodes "
            "that never receive the message"
        )
    return steps
