"""Binary node addressing in an ``n``-cube.

A hypercube of dimension ``n`` has ``N = 2**n`` nodes.  Each node is
identified with its ``n``-bit binary address (a Python ``int`` in
``range(2**n)``).  A channel connects ``u`` and ``v`` iff their addresses
differ in exactly one bit; the channel out of ``u`` in dimension ``d``
leads to ``u ^ (1 << d)``.

This module provides the small bit-level vocabulary used throughout the
library, most importantly ``delta`` -- Definition 1 of the paper: the
highest-order bit position in which two addresses differ, which under
high-to-low E-cube routing is the *first* dimension a message travels in.
"""

from __future__ import annotations

__all__ = [
    "MAX_N",
    "bit",
    "delta",
    "first_dim",
    "hamming",
    "lowest_diff",
    "neighbor",
    "popcount",
    "require_address",
    "reverse_bits",
]

#: Largest cube dimension the service and the command line accept.
#: 2^12 = 4096 nodes; beyond that a single pure-Python build can take
#: seconds, and a list of every node id (``-n 40``) exhausts memory.
MAX_N = 12


def popcount(x: int) -> int:
    """Number of 1 bits in ``x`` (written ``||x||`` in the paper)."""
    if x < 0:
        raise ValueError(f"address must be non-negative, got {x}")
    return x.bit_count()


def hamming(u: int, v: int) -> int:
    """Hamming distance between addresses ``u`` and ``v``.

    This equals the length (hop count) of the E-cube path ``P(u, v)``.
    """
    return popcount(u ^ v)


def bit(x: int, k: int) -> int:
    """The ``k``-th bit of ``x`` (0 or 1); bit 0 is the least significant."""
    return (x >> k) & 1


def delta(u: int, v: int) -> int:
    """Definition 1: highest-order bit position in which ``u``, ``v`` differ.

    ``delta(u, v) == floor(log2(u ^ v))``.  Under high-to-low address
    resolution this is the first dimension traversed by the E-cube path
    from ``u`` to ``v``.

    Raises:
        ValueError: if ``u == v`` (``delta`` is undefined in that case).
    """
    x = u ^ v
    if x == 0:
        raise ValueError(f"delta(u, v) is undefined for u == v == {u}")
    return x.bit_length() - 1


def lowest_diff(u: int, v: int) -> int:
    """Lowest-order bit position in which ``u`` and ``v`` differ.

    The ascending-order analogue of :func:`delta`; under low-to-high
    address resolution (the nCUBE-2 convention) this is the first
    dimension traversed by the E-cube path from ``u`` to ``v``.

    Raises:
        ValueError: if ``u == v``.
    """
    x = u ^ v
    if x == 0:
        raise ValueError(f"lowest_diff(u, v) is undefined for u == v == {u}")
    return (x & -x).bit_length() - 1


def first_dim(u: int, v: int, descending: bool = True) -> int:
    """First dimension traversed by the E-cube route from ``u`` to ``v``.

    Args:
        u: source address.
        v: destination address (must differ from ``u``).
        descending: ``True`` for high-to-low address resolution (the
            paper's convention), ``False`` for low-to-high (nCUBE-2's).
    """
    return delta(u, v) if descending else lowest_diff(u, v)


def neighbor(u: int, d: int) -> int:
    """The neighbor of node ``u`` across dimension ``d``."""
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    return u ^ (1 << d)


def reverse_bits(x: int, n: int) -> int:
    """Reverse the low ``n`` bits of ``x``.

    Bit-reversal conjugates ascending- and descending-order E-cube
    routing: the ascending route between ``u`` and ``v`` visits exactly
    the bit-reversed images of the nodes on the descending route between
    ``reverse_bits(u, n)`` and ``reverse_bits(v, n)``.  The library uses
    this to support both resolution orders with a single canonical
    implementation.
    """
    if x >> n:
        raise ValueError(f"address {x} does not fit in {n} bits")
    r = 0
    for _ in range(n):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def require_address(x: int, n: int, what: str = "address") -> int:
    """Validate that ``x`` is a legal node address in an ``n``-cube."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an int, got {type(x).__name__}")
    if x < 0 or x >> n:
        raise ValueError(f"{what} {x} out of range for an {n}-cube (0..{(1 << n) - 1})")
    return x
