"""Contention between unicasts of a multicast implementation (Section 3.4).

A software multicast is a collection of unicasts ``(u, v, P(u, v), t)``;
``t`` is the (integer) time step in which the unicast is sent.  Two
unicasts whose paths share an arc may or may not contend for it,
depending on timing.  Definition 4 of the paper gives the condition
under which a pair is *guaranteed* contention-free regardless of
startup latency and message length:

- their paths are arc-disjoint; or
- the earlier unicast's source can only have obtained the message
  through the later unicast's subtree -- formally ``t < tau`` and the
  later sender ``x`` is in the reachable set ``R_u`` of the earlier
  sender ``u`` (Definition 3).

This module implements reachable sets, the pairwise condition, and a
whole-schedule verifier.  The verifier is deliberately *independent* of
the algorithms' own reasoning: it recomputes paths and reachable sets
from scratch so the property-based tests exercise the algorithms
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.paths import Arc, ResolutionOrder, ecube_arcs

__all__ = [
    "ContentionReport",
    "Unicast",
    "check_contention_free",
    "pair_contention_free",
    "reachable_sets",
]


@dataclass(frozen=True, slots=True)
class Unicast:
    """A constituent unicast ``(src, dst, P(src, dst), step)`` of a multicast.

    ``step`` is the 1-based time step in which the message is sent; all
    unicasts sent in the same step are considered (potentially)
    concurrent.
    """

    src: int
    dst: int
    step: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"unicast source and destination coincide ({self.src})")
        if self.step < 1:
            raise ValueError(f"unicast step must be >= 1, got {self.step}")

    def arcs(self, order: ResolutionOrder = ResolutionOrder.DESCENDING) -> list[Arc]:
        """The directed channels used by this unicast's E-cube path."""
        return ecube_arcs(self.src, self.dst, order)


@dataclass(slots=True)
class ContentionReport:
    """Result of verifying a unicast schedule against Definition 4."""

    ok: bool
    violations: list[tuple[Unicast, Unicast, Arc]] = field(default_factory=list)
    causality_errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "contention-free"
        lines = [f"{len(self.violations)} contention violation(s)"]
        for a, b, arc in self.violations[:10]:
            lines.append(
                f"  {a.src}->{a.dst}@{a.step} vs {b.src}->{b.dst}@{b.step} share arc {arc}"
            )
        lines.extend(f"  causality: {e}" for e in self.causality_errors[:10])
        return "\n".join(lines)


def reachable_sets(source: int, unicasts: Iterable[Unicast]) -> dict[int, set[int]]:
    """Reachable set ``R_u`` for every node ``u`` in the multicast (Def. 3).

    ``R_u`` contains ``u`` itself plus every node that receives the
    message, directly or transitively, through a unicast originating at
    a node of ``R_u`` -- i.e. the subtree rooted at ``u`` when the
    multicast is viewed as a tree of unicasts.  Malformed schedules get
    the same closure: a relay cycle puts every node of the cycle in the
    reachable set of each, and deep relay chains need no recursion.
    """
    children: dict[int, list[int]] = {}
    nodes = [source]
    for uc in unicasts:
        children.setdefault(uc.src, []).append(uc.dst)
        nodes.append(uc.src)
        nodes.append(uc.dst)

    reach: dict[int, set[int]] = {}
    # receivers come after their senders in a schedule, so walking it
    # backwards mostly meets children whose sets are already complete
    for u in reversed(nodes):
        if u in reach:
            continue
        r = {u}
        stack = [u]
        while stack:
            for c in children.get(stack.pop(), ()):
                if c in r:
                    continue
                done = reach.get(c)
                if done is not None:
                    r |= done  # closed: everything c reaches is in it
                else:
                    r.add(c)
                    stack.append(c)
        reach[u] = r
    return reach


def pair_contention_free(
    a: Unicast,
    b: Unicast,
    reach: dict[int, set[int]],
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> tuple[bool, Arc | None]:
    """Definition 4 applied to one unordered pair of unicasts.

    Returns ``(True, None)`` if the pair is guaranteed contention-free,
    else ``(False, shared_arc)`` with a witness arc.
    """
    # Orient so `a` is the earlier (or equal-step) unicast.
    if b.step < a.step:
        a, b = b, a
    shared = set(a.arcs(order)) & set(b.arcs(order))
    if not shared:
        return True, None
    if a.step < b.step and b.src in reach.get(a.src, set()):
        return True, None
    return False, min(shared)


def check_contention_free(
    source: int,
    unicasts: Sequence[Unicast],
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> ContentionReport:
    """Verify a whole multicast schedule against Definition 4.

    Also checks *causality*: every sender other than the multicast
    source must have received the message in a strictly earlier step
    than any step in which it sends.
    """
    report = ContentionReport(ok=True)

    recv_step: dict[int, int] = {source: 0}
    for uc in unicasts:
        if uc.dst in recv_step:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.dst} receives the message more than once"
            )
        else:
            recv_step[uc.dst] = uc.step
    for uc in unicasts:
        got = recv_step.get(uc.src)
        if got is None:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} without ever receiving"
            )
        elif got >= uc.step:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} but only receives at step {got}"
            )

    # Only unicasts that share an arc can violate Definition 4.  Index
    # each arc's first user, and list the users of the arcs that have
    # more than one (an E-cube path holds each arc once).
    first: dict[Arc, int] = {}
    shared: dict[Arc, list[int]] = {}
    for i, uc in enumerate(unicasts):
        for arc in ecube_arcs(uc.src, uc.dst, order):
            j = first.setdefault(arc, i)
            if j != i:
                users = shared.get(arc)
                if users is None:
                    shared[arc] = [j, i]
                else:
                    users.append(i)
    k = len(unicasts)
    witness: dict[int, Arc] = {}  # i * k + j -> smallest arc i and j share
    for arc, users in shared.items():
        for x, i in enumerate(users):
            for j in users[x + 1 :]:
                pair = i * k + j
                prev = witness.get(pair)
                if prev is None or arc < prev:
                    witness[pair] = arc
    if not witness:
        return report

    reach = reachable_sets(source, unicasts)
    for pair in sorted(witness):
        a, b = unicasts[pair // k], unicasts[pair % k]
        if a.step == b.step:
            ok = False
        elif a.step < b.step:
            ok = b.src in reach.get(a.src, ())
        else:
            ok = a.src in reach.get(b.src, ())
        if not ok:
            report.ok = False
            report.violations.append((a, b, witness[pair]))
    return report
