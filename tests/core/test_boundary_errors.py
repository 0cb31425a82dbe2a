"""The argument checks at the kernels' public boundaries.

Every constructor and entry point below is public -- hand-built trees,
the fault-repair planner and the tests call them directly -- so each
check must raise the same exception type with the same message, however
the kernels behind it are arranged.  Each case pins both.
"""

from __future__ import annotations

import pytest

from repro.core.contention import Unicast
from repro.core.paths import ResolutionOrder
from repro.multicast.base import MulticastTree
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.simulator.engine import Simulator
from repro.simulator.network import WormholeNetwork

RANGE = r"out of range for an 4-cube \(0\.\.15\)"


def net4(**kwargs) -> WormholeNetwork:
    return WormholeNetwork(Simulator(), 4, **kwargs)


class TestMulticastTree:
    @pytest.mark.parametrize(
        "source, exc, match",
        [
            (16, ValueError, f"^source 16 {RANGE}$"),
            (-1, ValueError, f"^source -1 {RANGE}$"),
            (True, TypeError, "^source must be an int, got bool$"),
            (1.0, TypeError, "^source must be an int, got float$"),
        ],
    )
    def test_bad_source(self, source, exc, match):
        with pytest.raises(exc, match=match):
            MulticastTree(4, source, [2])

    @pytest.mark.parametrize(
        "dests, exc, match",
        [
            ([1, 16], ValueError, f"^destination 16 {RANGE}$"),
            ([-2], ValueError, f"^destination -2 {RANGE}$"),
            ([True], TypeError, "^destination must be an int, got bool$"),
            (["3"], TypeError, "^destination must be an int, got str$"),
            ([0, 1], ValueError, "^source must not be among the destinations$"),
        ],
    )
    def test_bad_destinations(self, dests, exc, match):
        with pytest.raises(exc, match=match):
            MulticastTree(4, 0, dests)

    @pytest.mark.parametrize(
        "src, dst, exc, match",
        [
            (16, 1, ValueError, f"^sender 16 {RANGE}$"),
            (False, 1, TypeError, "^sender must be an int, got bool$"),
            (0, -1, ValueError, f"^receiver -1 {RANGE}$"),
            (0, 2.0, TypeError, "^receiver must be an int, got float$"),
            (3, 3, ValueError, "^node 3 cannot send to itself$"),
        ],
    )
    def test_bad_send(self, src, dst, exc, match):
        tree = MulticastTree(4, 0, [1, 2])
        with pytest.raises(exc, match=match):
            tree.add_send(src, dst)
        assert tree.sends == []


class TestBuildTree:
    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    @pytest.mark.parametrize(
        "order, dests, match",
        [
            (ResolutionOrder.DESCENDING, [1, 16], f"^destination 16 {RANGE}$"),
            (ResolutionOrder.DESCENDING, [1, -3], f"^destination -3 {RANGE}$"),
            (ResolutionOrder.ASCENDING, [1, 16], "^address 16 does not fit in 4 bits$"),
        ],
    )
    def test_out_of_range_destination(self, name, order, dests, match):
        with pytest.raises(ValueError, match=match):
            get_algorithm(name).build_tree(4, 0, dests, order)

    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    @pytest.mark.parametrize("order", list(ResolutionOrder))
    def test_out_of_range_source(self, name, order):
        with pytest.raises(ValueError, match=f"^source 17 {RANGE}$"):
            get_algorithm(name).build_tree(4, 17, [1, 3], order)


class TestMakeWorm:
    @pytest.mark.parametrize(
        "src, dst, size, exc, match",
        [
            (16, 1, 10, ValueError, f"^worm source 16 {RANGE}$"),
            (0, 99, 10, ValueError, f"^worm destination 99 {RANGE}$"),
            (-1, 1, 10, ValueError, f"^worm source -1 {RANGE}$"),
            (True, 2, 10, TypeError, "^worm source must be an int, got bool$"),
            (0, 2.0, 10, TypeError, "^worm destination must be an int, got float$"),
            (3, 3, 10, ValueError, "^a worm needs distinct endpoints$"),
            (0, 1, 0, ValueError, "^message size must be >= 1 byte, got 0$"),
        ],
    )
    def test_bad_worm(self, src, dst, size, exc, match):
        net = net4()
        with pytest.raises(exc, match=match):
            net.make_worm(src, dst, size)
        assert net.worms == []

    @pytest.mark.parametrize(
        "arc, match",
        [
            ((0, 5), "^channel dimension 5 out of range$"),
            ((16, 0), f"^channel tail 16 {RANGE}$"),
        ],
    )
    def test_bad_explicit_arc(self, arc, match):
        net = net4()
        with pytest.raises(ValueError, match=match):
            net.inject(net.make_worm(0, 1, 10, arcs=[arc]))

    def test_bad_arc_from_custom_route(self):
        net = net4(route=lambda u, v: [(u, 7)])
        with pytest.raises(ValueError, match="^channel dimension 7 out of range$"):
            net.inject(net.make_worm(0, 1, 10))


class TestFailures:
    @pytest.mark.parametrize(
        "arc, match",
        [
            ((16, 0), f"^channel tail 16 {RANGE}$"),
            ((-1, 0), f"^channel tail -1 {RANGE}$"),
            ((0, 4), "^channel dimension 4 out of range$"),
            ((0, -1), "^channel dimension -1 out of range$"),
        ],
    )
    def test_fail_arc(self, arc, match):
        net = net4()
        with pytest.raises(ValueError, match=match):
            net.fail_arc(arc)
        assert net.dead_arcs == frozenset()

    @pytest.mark.parametrize(
        "node, dim, match",
        [
            (16, 0, f"^channel tail 16 {RANGE}$"),
            (0, 5, "^channel dimension 5 out of range$"),
            (0, -1, "^channel dimension -1 out of range$"),
        ],
    )
    def test_fail_link(self, node, dim, match):
        net = net4()
        with pytest.raises(ValueError, match=match):
            net.fail_link(node, dim)
        assert net.dead_arcs == frozenset()

    @pytest.mark.parametrize("dim", [1.0, True, "1"])
    def test_fail_arc_dimension_type(self, dim):
        net = net4()
        with pytest.raises(TypeError, match="^channel dimension must be an int, got "):
            net.fail_arc((0, dim))
        assert net.dead_arcs == frozenset()

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_fail_link_dimension_type(self, dim):
        net = net4()
        with pytest.raises(TypeError, match="^channel dimension must be an int, got "):
            net.fail_link(3, dim)
        assert net.dead_arcs == frozenset()


class TestUnicast:
    def test_self_unicast(self):
        with pytest.raises(ValueError, match=r"^unicast source and destination coincide \(3\)$"):
            Unicast(3, 3, 1)

    def test_step_below_one(self):
        with pytest.raises(ValueError, match="^unicast step must be >= 1, got 0$"):
            Unicast(3, 4, 0)
