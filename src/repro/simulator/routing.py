"""Routing functions for the wormhole network.

The paper assumes deterministic E-cube routing throughout; the network
model accepts any *routing function* mapping ``(src, dst)`` to a
channel sequence so that the E-cube assumptions can be tested rather
than baked in:

- :func:`ecube_routing` -- dimension-ordered (the paper's model), in
  either resolution order;
- :func:`random_minimal_routing` -- a seeded adversarial baseline that
  picks a random minimal path per worm.  Minimal but *unordered*
  routing admits cyclic channel dependencies, i.e. deadlock
  (Dally & Seitz), which :mod:`repro.simulator.deadlock` demonstrates.

A routing function must return a connected, cycle-free channel walk
from ``src`` to ``dst``; :func:`validate_route` checks one.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.core.paths import Arc, ResolutionOrder, ecube_arcs

__all__ = [
    "RoutingFunction",
    "ecube_routing",
    "random_minimal_routing",
    "validate_route",
]


class RoutingFunction(Protocol):
    """Maps a (src, dst) pair to the channel sequence its worm uses."""

    def __call__(self, src: int, dst: int) -> list[Arc]: ...


def ecube_routing(
    order: ResolutionOrder = ResolutionOrder.DESCENDING,
) -> RoutingFunction:
    """Deterministic dimension-ordered routing (the paper's model)."""

    def route(src: int, dst: int) -> list[Arc]:
        return ecube_arcs(src, dst, order)

    return route


def random_minimal_routing(seed: int = 0) -> RoutingFunction:
    """Adversarial baseline: a random minimal path per call.

    Still shortest-path (corrects each differing bit exactly once) but
    in a random order, so the global channel-dependency relation is
    cyclic and concurrent worms can deadlock.  Deterministic for a
    given seed and call sequence.
    """
    import numpy as np

    rng = np.random.default_rng(seed)

    def route(src: int, dst: int) -> list[Arc]:
        x = src ^ dst
        dims = [d for d in range(x.bit_length()) if (x >> d) & 1]
        rng.shuffle(dims)
        arcs: list[Arc] = []
        cur = src
        for d in dims:
            arcs.append((cur, d))
            cur ^= 1 << d
        return arcs

    return route


def validate_route(src: int, dst: int, arcs: list[Arc]) -> None:
    """Check that ``arcs`` is a legal channel walk from src to dst.

    Raises:
        ValueError: if the walk is disconnected, revisits a channel, or
            does not terminate at ``dst``.
    """
    cur = src
    seen: set[Arc] = set()
    for arc in arcs:
        node, dim = arc
        if node != cur:
            raise ValueError(f"route disconnected at {arc} (expected tail {cur})")
        if arc in seen:
            raise ValueError(f"route revisits channel {arc}")
        seen.add(arc)
        cur = node ^ (1 << dim)
    if cur != dst:
        raise ValueError(f"route ends at {cur}, expected {dst}")


#: convenience alias used by the network constructor
RouteFactory = Callable[[], RoutingFunction]
