"""Dimension-ordered and cube-ordered chains (Sections 4.1-4.2).

The multicast algorithms all operate on *chains*: sequences of node
addresses with structural ordering guarantees.

- A *dimension-ordered chain* (Section 4.1) is a sequence sorted by the
  relation ``<_d``.  When addresses are resolved from the highest bit
  to the lowest, ``<_d`` coincides with ordinary integer order.
- A *``d0``-relative dimension-ordered chain* is a sequence whose
  element-wise XOR with ``d0`` is dimension-ordered; the U-cube family
  sorts the source and destinations into such a chain before routing.
- A *cube-ordered chain* (Definition 5) only requires that the members
  of every subcube appear contiguously.  Every dimension-ordered chain
  is cube-ordered (Theorem 4), but not conversely; ``weighted_sort``
  produces cube-ordered chains that are not dimension-ordered.
"""

from __future__ import annotations

from operator import xor
from typing import Sequence

__all__ = [
    "dimension_compare",
    "dimension_sorted",
    "is_cube_ordered_chain",
    "is_dimension_ordered_chain",
    "relative_chain",
    "unrelative_chain",
]


def dimension_compare(a: int, b: int) -> int:
    """Compare ``a`` and ``b`` under the dimension-order relation ``<_d``.

    Returns a negative number, zero, or a positive number as ``a <_d b``,
    ``a == b``, or ``b <_d a``.  With high-to-low address resolution the
    relation reduces to ordinary integer comparison (the paper notes
    this), which is how it is implemented; the formal definition in
    Section 4.1 is checked against this implementation in the tests.
    """
    return (a > b) - (a < b)


def dimension_sorted(addresses: Sequence[int]) -> list[int]:
    """Sort ``addresses`` into a dimension-ordered chain."""
    return sorted(addresses)


def relative_chain(d0: int, destinations: Sequence[int]) -> list[int]:
    """Build the ``d0``-relative dimension-ordered chain for a multicast.

    Returns the sorted sequence ``[0] + sorted(d ^ d0 for d in
    destinations)`` -- i.e. the chain in *relative* address space, in
    which the source always occupies position 0 with relative address 0.

    Raises:
        ValueError: if ``d0`` appears among the destinations or the
            destinations contain duplicates.
    """
    rel = [d ^ d0 for d in destinations]
    if 0 in rel:
        raise ValueError(f"source {d0} must not be one of the destinations")
    if len(set(rel)) != len(rel):
        raise ValueError("destination addresses must be distinct")
    return [0] + sorted(rel)


def unrelative_chain(d0: int, chain: Sequence[int]) -> list[int]:
    """Translate a relative chain back to absolute addresses."""
    return [d ^ d0 for d in chain]


def is_dimension_ordered_chain(chain: Sequence[int]) -> bool:
    """True if ``chain`` is a dimension-ordered chain (distinct, sorted)."""
    return all(chain[i] < chain[i + 1] for i in range(len(chain) - 1))


def is_cube_ordered_chain(chain: Sequence[int], n: int) -> bool:
    """True if ``chain`` is a cube-ordered chain of dimension ``n`` (Def. 5).

    A chain is cube-ordered iff the members of every subcube appear
    contiguously.  At each level ``k``, a chain splits into runs of
    members of one ``k``-dimensional subcube, at least one per subcube
    it visits and exactly one each iff they are contiguous; a run ends
    where two neighbours differ in bit ``k`` or above.  Sorted, every
    chain is cube-ordered (Theorem 4), so a chain is cube-ordered iff at
    every level it has as many run ends as its sorted copy: iff both
    have the same multiset of neighbour distances ``(a ^ b).bit_length()``.
    This is ``O(m log m)``; the test suite validates it against an
    ``O(4**n * m)`` transcription of the definition.
    """
    for d in chain:
        if not isinstance(d, int) or d < 0 or d >> n:
            return False
    if len(set(chain)) != len(chain):
        return False
    return _neighbour_distances(chain) == _neighbour_distances(sorted(chain))


def _neighbour_distances(chain: Sequence[int]) -> list[int]:
    return sorted(map(int.bit_length, map(xor, chain, chain[1:])))
