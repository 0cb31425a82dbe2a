"""Tests for repro.core.paths: E-cube routes, Lemma 1, Theorems 1-2."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.addressing import delta, hamming, reverse_bits
from repro.core.paths import (
    ResolutionOrder,
    arc_id,
    arc_id_routes,
    arc_of,
    arcs_disjoint,
    ecube_arcs,
    ecube_dims,
    ecube_path,
    paths_arc_disjoint,
    theorem1_guarantees_disjoint,
    theorem2_guarantees_disjoint,
)
from repro.core.subcube import Subcube

DESC = ResolutionOrder.DESCENDING
ASC = ResolutionOrder.ASCENDING

nodes10 = st.integers(0, 1023)


class TestEcubePath:
    def test_paper_example(self):
        # Section 3.1: P(0101, 1110) = (0101; 1101; 1111; 1110)
        assert ecube_path(0b0101, 0b1110) == [0b0101, 0b1101, 0b1111, 0b1110]

    def test_trivial(self):
        assert ecube_path(9, 9) == [9]
        assert ecube_arcs(9, 9) == []

    def test_one_hop(self):
        assert ecube_path(0, 4) == [0, 4]
        assert ecube_arcs(0, 4) == [(0, 2)]

    def test_ascending_order(self):
        # low-to-high resolution: 0101 -> 0111 -> 1111 -> 1110? No:
        # dims of 0101^1110=1011 ascending: 0,1,3
        assert ecube_path(0b0101, 0b1110, ASC) == [0b0101, 0b0100, 0b0110, 0b1110]

    @given(nodes10, nodes10)
    def test_length_is_hamming(self, u, v):
        assert len(ecube_path(u, v)) == hamming(u, v) + 1
        assert len(ecube_arcs(u, v)) == hamming(u, v)

    @given(nodes10, nodes10)
    def test_each_hop_is_one_dim(self, u, v):
        p = ecube_path(u, v)
        for a, b in zip(p, p[1:]):
            assert hamming(a, b) == 1

    @given(nodes10, nodes10)
    def test_lemma1_strictly_decreasing_dims(self, u, v):
        """Lemma 1: a unicast travels each dimension at most once, in
        strictly decreasing order (for descending resolution)."""
        dims = ecube_dims(u, v, DESC)
        assert all(d1 > d2 for d1, d2 in zip(dims, dims[1:]))
        assert len(set(dims)) == len(dims)

    @given(nodes10, nodes10)
    def test_lemma1_prefix_suffix_bits(self, u, v):
        """Lemma 1 items 1-2: before traversing dimension d, low bits
        (0..d) match the source; afterwards, high bits (d+1..) match the
        destination."""
        p = ecube_path(u, v, DESC)
        for i in range(len(p) - 1):
            d = delta(p[i], p[i + 1])
            mask_low = (1 << (d + 1)) - 1
            for w in p[: i + 1]:
                assert w & mask_low == u & mask_low
            for w in p[i + 1 :]:
                assert w >> (d + 1) == v >> (d + 1)

    @given(nodes10, nodes10)
    def test_path_stays_in_smallest_subcube(self, u, v):
        """E-cube never leaves the smallest subcube containing u and v
        (the fact Theorem 2 rests on)."""
        s = Subcube.smallest_containing([u, v], 10)
        assert all(w in s for w in ecube_path(u, v, DESC))

    @given(nodes10, nodes10)
    def test_ascending_is_bit_reversed_descending(self, u, v):
        asc = ecube_path(u, v, ASC)
        desc = ecube_path(reverse_bits(u, 10), reverse_bits(v, 10), DESC)
        assert [reverse_bits(w, 10) for w in desc] == asc


class TestArcIds:
    """The kernels' arc ids against the (tail, dim) pairs of ecube_arcs."""

    @given(st.integers(1, 14), st.data(), st.sampled_from(list(ResolutionOrder)))
    def test_id_routes_are_ecube_arcs(self, n, data, order):
        u = data.draw(st.integers(0, (1 << n) - 1))
        v = data.draw(st.integers(0, (1 << n) - 1))
        routes = arc_id_routes(n, order)
        ids = [(u << routes.shift) ^ q for q in routes[u ^ v]]
        assert [arc_of(a, n) for a in ids] == ecube_arcs(u, v, order)
        assert ids == [arc_id(arc, n) for arc in ecube_arcs(u, v, order)]

    @given(st.integers(1, 14), st.data())
    def test_ids_order_like_pairs(self, n, data):
        arc = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, n - 1))
        a, b = data.draw(arc), data.draw(arc)
        assert (arc_id(a, n) < arc_id(b, n)) == (a < b)
        assert arc_of(arc_id(a, n), n) == a


class TestArcDisjoint:
    def test_same_path_not_disjoint(self):
        assert not arcs_disjoint(0, 7, 0, 7)

    def test_opposite_directions_are_disjoint(self):
        # channels are directed: u->v and v->u use different channels
        assert arcs_disjoint(0, 1, 1, 0)

    def test_fig3d_conflict(self):
        # Section 2: P(0111, 1100) and P(0111, 1011) share 0111->1111
        assert not arcs_disjoint(0b0111, 0b1100, 0b0111, 0b1011)

    def test_trivial_paths_disjoint(self):
        assert arcs_disjoint(3, 3, 0, 7)

    def test_paths_arc_disjoint_matches(self):
        p1 = ecube_path(0b0111, 0b1100)
        p2 = ecube_path(0b0111, 0b1011)
        assert not paths_arc_disjoint(p1, p2)
        assert paths_arc_disjoint(ecube_path(0, 1), ecube_path(2, 3))


class TestTheorem1:
    """Paths leaving a common source on different channels are arc-disjoint."""

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_sound_descending(self, x, y, v):
        if theorem1_guarantees_disjoint(x, y, v, DESC):
            assert arcs_disjoint(x, y, x, v, DESC)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_sound_ascending(self, x, y, v):
        if theorem1_guarantees_disjoint(x, y, v, ASC):
            assert arcs_disjoint(x, y, x, v, ASC)

    def test_hypothesis_requires_distinct_endpoints(self):
        assert not theorem1_guarantees_disjoint(5, 5, 9)
        assert not theorem1_guarantees_disjoint(5, 9, 5)

    def test_same_channel_not_guaranteed(self):
        # both 1100 and 1011 leave 0000 in dimension 3
        assert not theorem1_guarantees_disjoint(0b0000, 0b1100, 0b1011)


class TestTheorem2:
    """Inside-subcube paths are disjoint from outside-subcube paths."""

    @given(st.data())
    def test_sound(self, data):
        n = 6
        dim = data.draw(st.integers(0, n))
        mask = data.draw(st.integers(0, (1 << (n - dim)) - 1))
        s = Subcube(n, dim, mask)
        u = data.draw(st.integers(0, 63))
        v = data.draw(st.integers(0, 63))
        x = data.draw(st.integers(0, 63))
        y = data.draw(st.integers(0, 63))
        if theorem2_guarantees_disjoint(u, v, x, y, s):
            assert arcs_disjoint(u, v, x, y, DESC)

    def test_hypothesis_check(self):
        s = Subcube(4, 2, 0b10)  # nodes 8..11
        assert theorem2_guarantees_disjoint(8, 11, 0, 7, s)
        assert not theorem2_guarantees_disjoint(8, 11, 0, 9, s)  # y inside

    def test_counterexample_without_hypothesis(self):
        # paths crossing a subcube boundary can share arcs
        assert not arcs_disjoint(0b0000, 0b1100, 0b0000, 0b1011)


class TestExhaustiveTheorems4Cube:
    """Brute-force soundness of Theorems 1-2 over a whole 4-cube."""

    def test_theorem1_exhaustive(self):
        for x in range(16):
            for y in range(16):
                for v in range(16):
                    if theorem1_guarantees_disjoint(x, y, v):
                        assert arcs_disjoint(x, y, x, v)

    def test_theorem2_exhaustive_dim2(self):
        for mask in range(4):
            s = Subcube(4, 2, mask)
            inside = s.nodes()
            outside = [u for u in range(16) if u not in s]
            for u in inside:
                for v in inside:
                    for x in outside:
                        for y in outside:
                            assert arcs_disjoint(u, v, x, y)
