"""Tests for weighted_sort variants and their guard rails."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.paths import ResolutionOrder
from repro.multicast import ALL_PORT, WSort
from repro.multicast._chainloop import build_with_order, cube_ordered_tree
from repro.multicast.wsort import cube_center, weighted_sort, weighted_sort_fast
from tests.conftest import multicast_cases


class TestGuards:
    def test_weighted_sort_rejects_non_cube_ordered(self):
        with pytest.raises(ValueError):
            weighted_sort([0, 4, 1], 4)

    def test_fast_rejects_unsorted_body(self):
        with pytest.raises(ValueError):
            weighted_sort_fast([0, 5, 3, 7], 4)

    def test_fast_rejects_source_not_minimal(self):
        with pytest.raises(ValueError):
            weighted_sort_fast([5, 1, 3], 4)

    def test_fast_rejects_a_source_repeated_as_first_destination(self):
        with pytest.raises(
            ValueError, match="weighted_sort_fast requires a dimension-ordered chain"
        ):
            weighted_sort_fast([5, 5, 6], 3)

    def test_cube_center_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            cube_center([0, 1], 0, 1, 0)

    def test_tiny_chains_passthrough(self):
        assert weighted_sort([], 4) == []
        assert weighted_sort([3], 4) == [3]
        assert weighted_sort_fast([0, 9], 4) == [0, 9]


class TestCubeCenter:
    def test_split_position(self):
        # block {0,1,3,5,7,11,12,14,15} at level 4 splits at value 11
        chain = [0, 1, 3, 5, 7, 11, 12, 14, 15]
        assert cube_center(chain, 0, 8, 4) == 5

    def test_no_split_returns_last_plus_one(self):
        chain = [8, 9, 10]  # all in the high half of a 4-cube
        assert cube_center(chain, 0, 2, 4) == 3


def literal_wsort_tree(n, source, dests, order=ResolutionOrder.DESCENDING):
    """W-sort's tree, built with the Fig. 7 transcription of the sort."""
    return build_with_order(
        lambda n_, s_, d_: cube_ordered_tree(n_, s_, d_, reorder=weighted_sort),
        n,
        source,
        dests,
        order,
    )


class TestLiteralSortVariant:
    """W-sort's tree built with the Fig. 7 transcription of the sort."""

    def test_paper_example(self):
        sched = literal_wsort_tree(4, 0, [1, 3, 5, 7, 11, 12, 14, 15]).schedule(ALL_PORT)
        assert sched.max_step == 2
        assert sched.check_contention().ok

    @given(case=multicast_cases(max_n=5))
    def test_both_variants_identical_trees(self, case):
        n, source, dests = case
        fast = WSort().build_tree(n, source, dests)
        literal = literal_wsort_tree(n, source, dests)
        assert [(s.src, s.dst) for s in fast.sends] == [
            (s.src, s.dst) for s in literal.sends
        ]

    def test_literal_accepts_general_cube_ordered_chain(self):
        """The literal sort also handles chains that are cube-ordered
        but not dimension-ordered (where the fast variant refuses)."""
        chain = [0, 1, 3, 5, 7, 14, 15, 12, 11]  # the Fig. 8 output
        out = weighted_sort(chain, 4)
        assert sorted(out) == sorted(chain)
        assert out[0] == 0
        with pytest.raises(ValueError):
            weighted_sort_fast(chain, 4)
