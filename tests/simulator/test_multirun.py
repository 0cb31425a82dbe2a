"""Tests for concurrent multicasts sharing one network."""

from __future__ import annotations

import pytest

from repro.multicast import UCube, WSort
from repro.simulator import NCUBE2, simulate_multicast
from repro.simulator.multirun import simulate_concurrent_multicasts


def make_trees(alg, n, specs):
    return [alg.build_tree(n, src, dests) for src, dests in specs]


class TestSingleEquivalence:
    def test_one_tree_matches_plain_run(self):
        tree = WSort().build_tree(4, 0, [1, 3, 5, 7, 11, 12, 14, 15])
        single = simulate_multicast(tree, 4096, NCUBE2)
        multi = simulate_concurrent_multicasts([tree], 4096, NCUBE2)
        assert multi.delays[0] == pytest.approx(single.delays)
        assert multi.avg_delays[0] == pytest.approx(single.avg_delay)


class TestConcurrent:
    SPECS = [(0, [3, 5, 9, 14]), (15, [1, 2, 6, 12]), (6, [0, 8, 11, 13])]

    def test_all_operations_complete(self):
        trees = make_trees(WSort(), 4, self.SPECS)
        res = simulate_concurrent_multicasts(trees, 2048, NCUBE2)
        for tree, delays in zip(trees, res.delays):
            assert set(tree.destinations) <= set(delays)

    def test_interference_only_slows_down(self):
        trees = make_trees(WSort(), 4, self.SPECS)
        together = simulate_concurrent_multicasts(trees, 4096, NCUBE2)
        for i, tree in enumerate(trees):
            alone = simulate_multicast(tree, 4096, NCUBE2)
            for d in tree.destinations:
                assert together.delays[i][d] >= alone.delays[d] - 1e-6

    def test_staggered_starts_reduce_interference(self):
        trees = make_trees(UCube(), 4, self.SPECS)
        tight = simulate_concurrent_multicasts(trees, 4096, NCUBE2)
        wide = simulate_concurrent_multicasts(
            trees, 4096, NCUBE2, start_times=[0.0, 30000.0, 60000.0]
        )
        assert wide.total_blocked_time <= tight.total_blocked_time

    def test_makespan_at_least_single_op(self):
        trees = make_trees(WSort(), 4, self.SPECS)
        res = simulate_concurrent_multicasts(trees, 4096, NCUBE2)
        alone = max(
            simulate_multicast(t, 4096, NCUBE2).max_delay for t in trees
        )
        assert res.makespan >= alone - 1e-6

    def test_deterministic(self):
        trees = make_trees(WSort(), 4, self.SPECS)
        a = simulate_concurrent_multicasts(trees, 1024, NCUBE2)
        b = simulate_concurrent_multicasts(trees, 1024, NCUBE2)
        assert a.delays == b.delays


class TestValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            simulate_concurrent_multicasts([])

    def test_mixed_dimensions_rejected(self):
        t1 = WSort().build_tree(3, 0, [1])
        t2 = WSort().build_tree(4, 0, [1])
        with pytest.raises(ValueError):
            simulate_concurrent_multicasts([t1, t2])

    def test_start_times_length_checked(self):
        t = WSort().build_tree(3, 0, [1])
        with pytest.raises(ValueError):
            simulate_concurrent_multicasts([t], start_times=[0.0, 1.0])

    @pytest.mark.parametrize(
        "start",
        [
            pytest.param(-1.0, id="negative"),
            pytest.param(float("nan"), id="nan"),
            pytest.param(float("inf"), id="inf"),
        ],
    )
    def test_negative_start_rejected(self, start):
        """NaN used to fail in the kernel, and inf with an AssertionError
        that the multicast never arrived."""
        t = WSort().build_tree(4, 0, [1, 3, 5])
        with pytest.raises(ValueError, match=r"start_times\[0\] must be finite and >= 0"):
            simulate_concurrent_multicasts([t], start_times=[start])
