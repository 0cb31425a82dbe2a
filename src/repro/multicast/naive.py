"""Baseline multicast implementations (Section 2 / Fig. 3(a)).

Two baselines that predate the paper's contention-aware algorithms:

- :class:`SeparateAddressing` -- the source sends an individual copy of
  the message to every destination.  Correct but serial: even on an
  all-port node, copies whose E-cube paths leave on the same channel
  (or collide deeper in the network) must wait.
- :class:`DimensionalSAF` -- the recursive-doubling tree used by early
  store-and-forward hypercubes (Fig. 3(a)): the message enters each
  subcube that contains destinations through the sender's *neighbor* in
  that subcube, which may be a node that is not a destination at all.
  Every unicast is a single hop, so intermediate **CPUs** must relay the
  message -- the property the wormhole algorithms eliminate.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.addressing import require_address
from repro.core.paths import ResolutionOrder
from repro.multicast._chainloop import build_with_order
from repro.multicast.base import MulticastAlgorithm, MulticastTree

__all__ = ["DimensionalSAF", "SeparateAddressing"]


class SeparateAddressing(MulticastAlgorithm):
    """Send one unicast from the source to each destination."""

    name = "separate"

    def build_tree(
        self,
        n: int,
        source: int,
        destinations: Sequence[int],
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> MulticastTree:
        def build(n_: int, s_: int, dests: Sequence[int]) -> MulticastTree:
            tree = MulticastTree(n_, s_, dests)
            for d in sorted(dests):
                tree.add_send(s_, d)
            return tree

        return build_with_order(build, n, source, destinations, order)


class DimensionalSAF(MulticastAlgorithm):
    """Store-and-forward-era recursive-doubling multicast tree.

    The holder of subcube ``S`` walks the free dimensions from high to
    low; whenever the opposite half of ``S`` contains at least one
    destination, the holder forwards the message one hop across that
    dimension -- to its mirror node, destination or not -- and that node
    becomes the holder of the half.  Relay CPUs (the tree's
    ``relay_nodes``) handle messages they have no use for; with
    store-and-forward switching each of the single-hop unicasts was one
    full message time, giving the 4-step behaviour of Fig. 3(a).
    """

    name = "saf"

    def build_tree(
        self,
        n: int,
        source: int,
        destinations: Sequence[int],
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> MulticastTree:
        def build(n_: int, s_: int, dests: Sequence[int]) -> MulticastTree:
            require_address(s_, n_, "source")
            tree = MulticastTree(n_, s_, dests)
            dest_set = set(dests)

            def covers(holder: int, dim: int) -> bool:
                """Does the dim-subcube around `holder` contain a destination?"""
                prefix = holder >> dim
                return any((d >> dim) == prefix for d in dest_set)

            # (holder, dim): `holder` owns the subcube with `dim` free
            # bits and has not yet looked below dimension `dim`; the
            # mirror's subcube is walked before the holder's next send
            stack = [(s_, n_)]
            while stack:
                holder, dim = stack.pop()
                for d in range(dim - 1, -1, -1):
                    mirror = holder ^ (1 << d)
                    if covers(mirror, d):
                        tree.add_send(holder, mirror)
                        stack.append((holder, d))
                        stack.append((mirror, d))
                        break
            return tree

        return build_with_order(build, n, source, destinations, order)
