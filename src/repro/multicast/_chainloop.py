"""Shared machinery for the chain-based algorithms (Fig. 4 and Section 4.2).

U-cube, Maxport, and Combine differ in a *single statement* of the main
loop in Fig. 4 -- the choice of ``next``:

======== =============================
U-cube   ``next = center``
Maxport  ``next = highdim``
Combine  ``next = max(highdim, center)``
======== =============================

``chain_loop_tree`` implements the common loop over a ``d0``-relative
dimension-ordered chain.  ``cube_ordered_tree`` implements the
subcube-recursive formulation of Maxport from Section 4.2, which
accepts *any* cube-ordered chain (in particular the output of
``weighted_sort``); on a dimension-ordered chain it emits exactly the
same sends as the Fig. 4 loop with ``next = highdim``, which the test
suite verifies.

Both builders work in relative address space (the source is relative
address 0) and translate back to absolute addresses when emitting,
exploiting the XOR-translation invariance of E-cube routing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Sequence

from repro.core.addressing import delta, require_address, reverse_bits
from repro.core.chains import is_cube_ordered_chain, relative_chain
from repro.core.paths import ResolutionOrder
from repro.multicast.base import MulticastTree

__all__ = ["build_with_order", "chain_loop_tree", "cube_ordered_tree"]

NextSelector = Callable[[int, int], int]


def _highdim_index(chain: Sequence[int], left: int, right: int, x: int) -> int:
    """Leftmost index ``i`` in ``(left, right]`` with ``delta(chain[left],
    chain[i]) == x``, assuming the segment is ascending and ``x`` is the
    highest bit differing anywhere in it.

    Elements differing from ``chain[left]`` at bit ``x`` are exactly
    those with bit ``x`` set (the segment minimum has it clear), and
    they form the segment's tail, so a binary search suffices.
    """
    threshold = ((chain[left] >> (x + 1)) << (x + 1)) | (1 << x)
    return bisect_left(chain, threshold, left + 1, right + 1)


def chain_loop_tree(
    n: int,
    source: int,
    destinations: Sequence[int],
    select_next: NextSelector,
    needs_highdim: bool,
) -> MulticastTree:
    """The Fig. 4 main loop, executed for every receiver.

    Args:
        select_next: maps ``(highdim, center)`` to the chain position of
            the next receiver.  ``highdim`` is only meaningful when
            ``needs_highdim`` is true (U-cube never inspects it and the
            search is skipped).
    """
    tree = MulticastTree(n, source, destinations)
    chain = relative_chain(source, destinations)
    # absolute addresses: each send's address field is one slice of it
    absolute = tuple(c ^ source for c in chain)
    append = tree._append
    # Blocks ``(left, right)`` whose holder ``chain[left]`` has sends
    # left to issue.  A receiver's block is walked before its holder's
    # next send, in the Fig. 4 loop's order.
    stack = [(0, len(chain) - 1)]
    while stack:
        left, right = stack.pop()
        while left < right:
            x = delta(chain[left], chain[right])
            highdim = _highdim_index(chain, left, right, x) if needs_highdim else -1
            center = left + (right - left + 1) // 2  # left + ceil((right-left)/2)
            nxt = select_next(highdim, center)
            append(absolute[left], absolute[nxt], absolute[nxt + 1 : right + 1])
            if nxt - 1 > left:
                stack.append((left, nxt - 1))
            left = nxt
    return tree


def cube_ordered_tree(
    n: int,
    source: int,
    destinations: Sequence[int],
    reorder: Callable[[list[int], int], list[int]] | None = None,
) -> MulticastTree:
    """Subcube-recursive Maxport over a cube-ordered chain (Section 4.2).

    The relative chain is built (dimension-ordered, hence cube-ordered
    by Theorem 4), optionally permuted by ``reorder`` (e.g.
    ``weighted_sort``), and then routed: each holder sends one unicast
    into each maximal subcube of its own subcube that does not contain
    it and contains at least one destination.

    Args:
        reorder: optional permutation of the relative chain; must return
            a cube-ordered chain whose first element is still 0
            (Theorem 5 guarantees this for ``weighted_sort``).
    """
    tree = MulticastTree(n, source, destinations)
    chain = relative_chain(source, destinations)
    if reorder is not None:
        chain = reorder(chain, n)
        if chain[0] != 0:
            raise ValueError("reorder must keep the source first in the chain")
        if __debug__ and len(chain) <= 1 << 12:
            assert is_cube_ordered_chain(chain, n), "reorder broke cube order"

    absolute = tuple(c ^ source for c in chain)
    append = tree._append
    # the same walk as chain_loop_tree's, over subcube splits
    stack = [(0, len(chain) - 1)]
    while stack:
        left, right = stack.pop()
        while left < right:
            # The block splits first at the highest bit where its ends
            # differ; the holder's half is a prefix, so binary-search its end.
            x = chain[left] ^ chain[right]
            if not x:  # distinct addresses always split
                raise AssertionError("cube-ordered chain failed to split")
            b = 1 << (x.bit_length() - 1)
            head = chain[left] & b
            lo, hi = left + 1, right
            while lo < hi:
                mid = (lo + hi) // 2
                if chain[mid] & b == head:
                    lo = mid + 1
                else:
                    hi = mid
            append(absolute[left], absolute[lo], absolute[lo + 1 : right + 1])
            if lo - 1 > left:
                stack.append((left, lo - 1))
            left = lo
    return tree


def build_with_order(
    build: Callable[[int, int, Sequence[int]], MulticastTree],
    n: int,
    source: int,
    destinations: Sequence[int],
    order: ResolutionOrder,
) -> MulticastTree:
    """Run a descending-order tree builder under either resolution order.

    Ascending-order (nCUBE-2 style) routing is the bit-reversal
    conjugate of descending-order routing, so the ascending tree is
    obtained by bit-reversing all addresses, building the canonical
    descending tree, and reversing back.  All structural and contention
    properties transfer (the paper notes the resolution order does not
    affect any result).
    """
    require_address(source, n, "source")
    if order is ResolutionOrder.DESCENDING:
        return build(n, source, destinations)
    rev = lambda x: reverse_bits(x, n)  # noqa: E731
    rtree = build(n, rev(source), [rev(d) for d in destinations])
    tree = MulticastTree(n, source, destinations, order=ResolutionOrder.ASCENDING)
    for src, dst, chain in zip(rtree._src, rtree._dst, rtree._chain):
        tree._append(rev(src), rev(dst), tuple(map(rev, chain)))
    return tree
