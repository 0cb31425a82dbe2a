"""Tests for repro.core.chains: dimension order, cube order, Theorem 4."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.chains import (
    dimension_compare,
    dimension_sorted,
    is_cube_ordered_chain,
    is_dimension_ordered_chain,
    relative_chain,
    unrelative_chain,
)
from repro.core.subcube import Subcube


def is_cube_ordered_chain_bruteforce(chain, n: int) -> bool:
    """Literal transcription of Definition 5 (exponential)."""
    for d in chain:
        if not isinstance(d, int) or d < 0 or d >> n:
            return False
    if len(set(chain)) != len(chain):
        return False
    m = len(chain)
    for dim in range(n + 1):
        for mask in range(1 << (n - dim)):
            s = Subcube(n, dim, mask)
            member = [i for i in range(m) if chain[i] in s]
            if member and member[-1] - member[0] + 1 != len(member):
                return False
    return True


def formal_dimension_lt(a: int, b: int, n: int) -> bool:
    """Literal transcription of the Section 4.1 definition of a <_d b."""
    if a == b:
        return True
    for j in range(n):
        if (a & (1 << j)) < (b & (1 << j)) and all(
            (a & (1 << i)) == (b & (1 << i)) for i in range(j + 1, n)
        ):
            return True
    return False


class TestDimensionOrder:
    def test_paper_example_high_to_low(self):
        # Section 4.1: dimension ordering of 10100, 00110, 10010
        chain = dimension_sorted([0b10100, 0b00110, 0b10010])
        assert chain == [0b00110, 0b10010, 0b10100]

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_matches_formal_definition(self, a, b):
        """With high-to-low resolution, <_d is plain integer order."""
        assert formal_dimension_lt(a, b, 8) == (a <= b)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_compare_consistent(self, a, b):
        c = dimension_compare(a, b)
        assert (c < 0) == (a < b)
        assert (c == 0) == (a == b)


class TestRelativeChain:
    def test_fig5_example(self):
        """Section 4.1: source 0100, eight destinations; the d0-relative
        chain is the Fig. 3 destination set."""
        source = 0b0100
        dests = [0b0001, 0b0011, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1111]
        chain = relative_chain(source, dests)
        assert chain == [
            0b0000,
            0b0001,
            0b0011,
            0b0101,
            0b0111,
            0b1011,
            0b1100,
            0b1110,
            0b1111,
        ]

    def test_source_first(self):
        chain = relative_chain(5, [1, 2, 3])
        assert chain[0] == 0

    def test_source_among_dests_rejected(self):
        with pytest.raises(ValueError):
            relative_chain(5, [5, 1])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            relative_chain(5, [1, 1])

    @given(st.integers(0, 63), st.sets(st.integers(0, 63), min_size=1))
    def test_roundtrip(self, source, dests):
        dests -= {source}
        if not dests:
            return
        chain = relative_chain(source, sorted(dests))
        back = unrelative_chain(source, chain)
        assert back[0] == source
        assert set(back[1:]) == dests

    @given(st.integers(0, 63), st.sets(st.integers(0, 63), min_size=1))
    def test_is_dimension_ordered(self, source, dests):
        dests -= {source}
        if not dests:
            return
        assert is_dimension_ordered_chain(relative_chain(source, sorted(dests)))


class TestCubeOrderedChain:
    def test_ascending_is_cube_ordered(self):
        """Theorem 4: every dimension-ordered chain is cube-ordered."""
        assert is_cube_ordered_chain([0, 1, 3, 5, 7, 11, 12, 14, 15], 4)

    def test_paper_weighted_chain(self):
        """The weighted_sort output of Fig. 8 is cube-ordered but not
        dimension-ordered."""
        chain = [0, 1, 3, 5, 7, 14, 15, 12, 11]
        assert is_cube_ordered_chain(chain, 4)
        assert not is_dimension_ordered_chain(chain)

    def test_non_cube_ordered(self):
        # 0 and 1 are in subcube (1, 000) but are separated by 4
        assert not is_cube_ordered_chain([0, 4, 1], 4)

    def test_duplicates_rejected(self):
        assert not is_cube_ordered_chain([1, 1], 4)

    def test_out_of_range_rejected(self):
        assert not is_cube_ordered_chain([0, 16], 4)
        assert not is_cube_ordered_chain([-1], 4)

    def test_trivial_chains(self):
        assert is_cube_ordered_chain([], 4)
        assert is_cube_ordered_chain([9], 4)
        assert is_cube_ordered_chain([9, 2], 4)

    @given(st.lists(st.integers(0, 31), max_size=12))
    def test_matches_bruteforce(self, chain):
        assert is_cube_ordered_chain(chain, 5) == is_cube_ordered_chain_bruteforce(chain, 5)

    @given(st.sets(st.integers(0, 63), min_size=1, max_size=20))
    def test_theorem4(self, values):
        """Theorem 4, property form: sorted chains are cube-ordered."""
        chain = sorted(values)
        assert is_cube_ordered_chain(chain, 6)
        assert is_cube_ordered_chain_bruteforce(chain, 6)

    @given(st.data())
    def test_swapping_halves_preserves_cube_order(self, data):
        """The operation weighted_sort performs -- exchanging the two
        halves of a subcube block -- preserves cube order."""
        values = data.draw(st.sets(st.integers(0, 31), min_size=3, max_size=20))
        chain = sorted(values)
        # split the top-level block by bit 4
        split = next((i for i, v in enumerate(chain) if v >= 16), len(chain))
        if split in (0, len(chain)):
            return
        swapped = chain[split:] + chain[:split]
        assert is_cube_ordered_chain(swapped, 5)
