"""``weighted_sort`` (Fig. 7) and the W-sort multicast algorithm (Section 4.2).

A dimension-ordered chain is a legal input to Maxport, but not
necessarily the best one: performance improves if every (intermediate)
sender forwards first into the most "crowded" subcube.  ``weighted_sort``
permutes a cube-ordered chain by recursively exchanging subcube halves
so that the more populated half appears first, never moving the source
from position 0 (Theorem 5).  Feeding the permuted chain to the
subcube-recursive Maxport yields the *W-sort* algorithm, which is
contention-free (Theorem 6).

Two implementations of the sort are provided:

- :func:`weighted_sort` -- a literal transcription of Fig. 7, the
  centralized ``O(m^2)`` procedure;
- :func:`weighted_sort_fast` -- an ``O(m log m)`` reformulation that
  mirrors the distributed version the paper defers to its tech report
  [10]; it produces the identical permutation (property-tested).

W-sort runs the fast one; the literal one is the reference it is
tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.core.chains import is_cube_ordered_chain
from repro.core.paths import ResolutionOrder
from repro.multicast._chainloop import build_with_order, cube_ordered_tree
from repro.multicast.base import MulticastAlgorithm, MulticastTree

__all__ = ["WSort", "cube_center", "weighted_sort", "weighted_sort_fast"]


def cube_center(chain: Sequence[int], first: int, last: int, n_s: int) -> int:
    """Starting position of the second ``(n_s - 1)``-dimensional half of
    the subcube block ``chain[first..last]``.

    The block must lie within a single subcube with ``n_s`` free bits
    and be cube-ordered, so the elements sharing bit ``n_s - 1`` with
    ``chain[first]`` form a prefix; the returned index is the first
    position beyond that prefix, or ``last + 1`` when one half contains
    no nodes at all.
    """
    if n_s < 1:
        raise ValueError(f"subcube dimension must be >= 1, got {n_s}")
    b = 1 << (n_s - 1)
    head = chain[first] & b
    for i in range(first + 1, last + 1):
        if (chain[i] & b) != head:
            return i
    return last + 1


def weighted_sort(chain: Sequence[int], n: int) -> list[int]:
    """Fig. 7: permute a cube-ordered chain so the most populated subcube
    half always comes first, keeping position 0 (the source) fixed.

    Args:
        chain: a cube-ordered chain of dimension ``n`` whose first
            element is the (relative) source address.
        n: the hypercube dimension.

    Returns:
        A new list: a cube-ordered permutation of ``chain`` with
        ``chain[0]`` still first (Theorem 5).
    """
    if not is_cube_ordered_chain(chain, n):
        raise ValueError("weighted_sort requires a cube-ordered chain")
    d = list(chain)

    def rec(first: int, last: int, n_s: int) -> None:
        if last - first >= 2:
            center = cube_center(d, first, last, n_s)
            rec(first, center - 1, n_s - 1)
            rec(center, last, n_s - 1)
            if first != 0 and (center - first) < (last - center + 1):
                d[first : last + 1] = d[center : last + 1] + d[first:center]

    rec(0, len(d) - 1, n)
    return d


def weighted_sort_fast(chain: Sequence[int], n: int) -> list[int]:
    """``O(m log m)`` reformulation of :func:`weighted_sort`.

    Produces the identical permutation by recursing over value-space
    subcube halves of the *sorted* chain and concatenating the larger
    half first (except in the block containing the source, whose own
    half always stays first).  Requires the input to be dimension-ordered
    apart from its leading source element, which is how W-sort always
    invokes the sort; for arbitrary cube-ordered inputs use
    :func:`weighted_sort`.
    """
    if len(chain) <= 2:
        return list(chain)
    d = list(chain)
    # the source below every destination, and the destinations strictly
    # ascending: the split below needs distinct, sorted addresses
    if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
        raise ValueError(
            "weighted_sort_fast requires a dimension-ordered chain "
            "(source first, destinations ascending)"
        )

    out: list[int] = []
    # d[lo:hi] is the sorted block of one subcube, and has_source marks
    # the source's own block; each split walks its first half next and
    # leaves the second on the stack
    stack = [(0, len(d), True)]
    while stack:
        lo, hi, has_source = stack.pop()
        while hi - lo > 1:
            # levels above the highest bit where the block's ends differ
            # put the whole block in one half, which comes first either
            # way; at that bit the upper half starts at the first element
            # with it set
            b = 1 << ((d[lo] ^ d[hi - 1]).bit_length() - 1)
            split = bisect_left(d, (d[lo] | b) & -b, lo + 1, hi)
            if has_source or split - lo >= hi - split:
                stack.append((split, hi, False))
                hi = split
            else:
                stack.append((lo, split, False))
                lo, has_source = split, False
        out.extend(d[lo:hi])
    return out


class WSort(MulticastAlgorithm):
    """W-sort: dimension-order sort, then ``weighted_sort``, then the
    subcube-recursive Maxport (Section 4.2)."""

    name = "wsort"

    def build_tree(
        self,
        n: int,
        source: int,
        destinations: Sequence[int],
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
    ) -> MulticastTree:
        return build_with_order(
            lambda n_, s_, d_: cube_ordered_tree(n_, s_, d_, reorder=weighted_sort_fast),
            n,
            source,
            destinations,
            order,
        )
