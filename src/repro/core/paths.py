"""Dimension-ordered (E-cube) paths and arc-disjointness (Sections 3.2-3.3).

Under E-cube routing a unicast from ``u`` to ``v`` corrects the differing
address bits in a fixed order -- strictly descending (the paper's
convention) or strictly ascending (the nCUBE-2's) -- visiting a unique
shortest path ``P(u, v)``.

An *arc* is a directed channel, identified here by the pair
``(tail_node, dim)``: the channel leaving ``tail_node`` in dimension
``dim``.  The kernels (greedy scheduler, verifier, simulator) use its
*arc id* ``(tail_node << s) + dim`` instead, with ``s = n.bit_length()``
for an ``n``-cube: an int that orders like the pair.  Two unicasts can
only contend for a channel if their paths share an arc, so
*arc-disjoint* paths are always contention-free.
Theorems 1 and 2 of the paper give cheap sufficient conditions for
arc-disjointness; this module implements both the exact (enumerative)
check and the theorem-based predicates, which the test suite validates
against each other.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Sequence

from repro.core.addressing import delta, first_dim
from repro.core.subcube import Subcube

__all__ = [
    "Arc",
    "ArcIdRoutes",
    "ResolutionOrder",
    "arc_id",
    "arc_id_routes",
    "arc_of",
    "arcs_disjoint",
    "ecube_arcs",
    "ecube_dims",
    "ecube_path",
    "paths_arc_disjoint",
    "theorem1_guarantees_disjoint",
    "theorem2_guarantees_disjoint",
]

#: A directed channel: ``(tail_node, dim)`` is the channel from
#: ``tail_node`` to ``tail_node ^ (1 << dim)``.
Arc = tuple[int, int]


class ResolutionOrder(Enum):
    """Order in which E-cube routing resolves address bits.

    ``DESCENDING`` (high-order bits first) is the convention used in all
    of the paper's examples; ``ASCENDING`` is the nCUBE-2's.  The paper
    notes that the choice does not affect any of the results, a fact the
    test suite checks by bit-reversal conjugation.
    """

    DESCENDING = "descending"
    ASCENDING = "ascending"

    @property
    def descending(self) -> bool:
        return self is ResolutionOrder.DESCENDING


#: E-cube routes, one table per resolution order, keyed by ``u ^ v``
#: (see :func:`_ecube_steps`).  Keyed by the difference, not the pair, a
#: table never holds more than ``2**n`` entries for ``n``-cube addresses
#: -- 4096 at the service's largest cube -- so a long-lived process does
#: not grow it with every new destination set.  Filling is idempotent,
#: so threads may race on it harmlessly.
_DESCENDING_ROUTES: dict[int, tuple[tuple[int, int], ...]] = {0: ()}
_ASCENDING_ROUTES: dict[int, tuple[tuple[int, int], ...]] = {0: ()}
# bound to a module name: reading a member off an Enum class is slow
_DESCENDING = ResolutionOrder.DESCENDING


def _ecube_steps(x: int, order: ResolutionOrder) -> tuple[tuple[int, int], ...]:
    """The E-cube route of every pair ``u ^ v = x``, from the table:
    ``((prefix, dim), ...)`` in traversal order, where the hop across
    ``dim`` leaves node ``u ^ prefix``.

    A missing entry is filled from the entry of ``x`` without its
    first-resolved bit.
    """
    descending = order is _DESCENDING
    table = _DESCENDING_ROUTES if descending else _ASCENDING_ROUTES
    route = table.get(x)
    if route is None:
        if x < 0:
            raise ValueError(f"node addresses must be non-negative (u ^ v = {x})")
        bit = 1 << (x.bit_length() - 1) if descending else x & -x
        route = table[x] = ((0, bit.bit_length() - 1),) + tuple(
            (prefix | bit, d) for prefix, d in _ecube_steps(x ^ bit, order)
        )
    return route


def ecube_dims(u: int, v: int, order: ResolutionOrder = ResolutionOrder.DESCENDING) -> list[int]:
    """The dimensions traversed by ``P(u, v)``, in traversal order."""
    return [d for _, d in _ecube_steps(u ^ v, order)]


def ecube_path(
    u: int,
    v: int,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> list[int]:
    """The node sequence of the E-cube path ``P(u, v)``, inclusive of both ends.

    ``ecube_path(u, u)`` is ``[u]``.  Example (paper, Section 3.1)::

        >>> ecube_path(0b0101, 0b1110)
        [5, 13, 15, 14]
    """
    path = [u]
    cur = u
    for d in ecube_dims(u, v, order):
        cur ^= 1 << d
        path.append(cur)
    return path


def ecube_arcs(
    u: int,
    v: int,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> list[Arc]:
    """The directed arcs (channels) used by ``P(u, v)``, in traversal order."""
    return [(u ^ prefix, d) for prefix, d in _ecube_steps(u ^ v, order)]


def arc_id(arc: Arc, n: int) -> int:
    """The id of ``arc = (tail, dim)`` in an ``n``-cube: ``(tail << s) + dim``
    with ``s = n.bit_length()``, so ids order like the pairs."""
    return (arc[0] << n.bit_length()) + arc[1]


def arc_of(arc_id: int, n: int) -> Arc:
    """The ``(tail, dim)`` pair of an ``n``-cube arc id."""
    return divmod(arc_id, 1 << n.bit_length())


class ArcIdRoutes(dict):
    """One cube's E-cube routes as arc ids, keyed by ``u ^ v`` like the
    route table and filled from it: the ids of the path from node 0,
    ``(prefix << shift) | dim``.  The path from ``u`` differs only in its
    tail bits: ``[(u << shift) ^ q for q in routes[u ^ v]]``."""

    def __init__(self, shift: int, order: ResolutionOrder) -> None:
        super().__init__()
        self.shift, self.order = shift, order

    def __missing__(self, x: int) -> tuple[int, ...]:
        ids = self[x] = tuple(p << self.shift | d for p, d in _ecube_steps(x, self.order))
        return ids


@cache
def arc_id_routes(n: int, order: ResolutionOrder = ResolutionOrder.DESCENDING) -> ArcIdRoutes:
    """The ``n``-cube's arc-id routes under ``order`` (see :func:`arc_id`)."""
    return ArcIdRoutes(n.bit_length(), order)


def paths_arc_disjoint(
    p1: Sequence[int],
    p2: Sequence[int],
) -> bool:
    """Exact arc-disjointness test on two explicit node-sequence paths."""
    a1 = {
        (p1[i], delta(p1[i], p1[i + 1]))
        for i in range(len(p1) - 1)
    }
    for i in range(len(p2) - 1):
        if (p2[i], delta(p2[i], p2[i + 1])) in a1:
            return False
    return True


def arcs_disjoint(
    u: int,
    v: int,
    x: int,
    y: int,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> bool:
    """Exact test: are ``P(u, v)`` and ``P(x, y)`` arc-disjoint?"""
    if u == v or x == y:
        return True
    a1 = set(ecube_arcs(u, v, order))
    return not any(a in a1 for a in ecube_arcs(x, y, order))


def theorem1_guarantees_disjoint(
    x: int,
    y: int,
    v: int,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> bool:
    """Theorem 1: paths leaving a common source on different channels are
    arc-disjoint.

    Returns True if the theorem's hypothesis holds for ``P(x, y)`` and
    ``P(x, v)``, i.e. the first dimensions differ.  (A False return means
    the theorem is silent, not that the paths intersect.)
    """
    if x == y or x == v:
        return False
    return first_dim(x, y, order.descending) != first_dim(x, v, order.descending)


def theorem2_guarantees_disjoint(
    u: int,
    v: int,
    x: int,
    y: int,
    s: Subcube,
) -> bool:
    """Theorem 2: a path with both endpoints inside subcube ``S`` is
    arc-disjoint from any path with both endpoints outside ``S``.

    Returns True if the hypothesis holds for ``P(u, v)`` (inside) and
    ``P(x, y)`` (outside).  Note this relies on E-cube paths never
    leaving the smallest subcube containing their endpoints, which holds
    for the descending resolution order paired with high-bit-fixed
    subcubes (and, by bit-reversal symmetry, for the ascending order
    paired with low-bit-fixed subcubes).
    """
    return u in s and v in s and x not in s and y not in s
