"""End-to-end verification of a multicast implementation.

Ties together the structural checks (coverage, CPU involvement) and the
Definition 4 contention verifier.  Used by the test suite and available
to library users who implement their own tree builders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.paths import ResolutionOrder
from repro.multicast.base import MulticastAlgorithm, MulticastTree, Schedule
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs import trace_spans

__all__ = ["VerificationResult", "verify_multicast", "verify_tree"]


@dataclass(slots=True)
class VerificationResult:
    """Outcome of :func:`verify_multicast`."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    schedule: Schedule | None = None

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError("multicast verification failed:\n  " + "\n  ".join(self.errors))


def verify_tree(tree: MulticastTree, allow_relays: bool = False) -> list[str]:
    """Structural checks on a multicast tree; returns a list of errors.

    - every destination receives the message exactly once;
    - nothing is delivered twice to any node;
    - unless ``allow_relays``, no CPU other than the source's and the
      destinations' handles the message (the wormhole requirement).
    """
    errors: list[str] = []
    received = Counter(tree._dst)
    for node, times in received.items():
        if times > 1:
            errors.append(f"node {node} receives the message {times} times")
    if tree.source in received:
        errors.append("the source receives its own message")
    missing = tree.destinations - received.keys()
    if missing:
        errors.append(f"destinations never reached: {sorted(missing)}")
    if not allow_relays:
        relays = tree.relay_nodes
        if relays:
            errors.append(f"non-destination CPUs involved: {sorted(relays)}")
    return errors


def verify_multicast(
    algorithm: MulticastAlgorithm,
    n: int,
    source: int,
    destinations: Sequence[int],
    ports: PortModel = ALL_PORT,
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
    allow_relays: bool = False,
) -> VerificationResult:
    """Build, schedule, and fully verify one multicast operation.

    Checks tree structure (see :func:`verify_tree`) and that the greedy
    schedule is contention-free per Definition 4.
    """
    with trace_spans.span(
        "verify.multicast", algorithm=algorithm.name, n=n, m=len(destinations)
    ) as sp:
        tree = algorithm.build_tree(n, source, destinations, order)
        errors = verify_tree(tree, allow_relays=allow_relays)
        schedule = tree.schedule(ports)
        report = schedule.check_contention()
        if not report.ok:
            errors.append(report.summary())
        if sp is not None:
            sp.set(ok=not errors, errors=len(errors))
        return VerificationResult(ok=not errors, errors=errors, schedule=schedule)
