"""Tests for multicast under background load."""

from __future__ import annotations

import pytest

from repro.multicast import UCube, WSort
from repro.simulator import NCUBE2, simulate_multicast
from repro.simulator.traffic import simulate_multicast_under_load

TREE = WSort().build_tree(5, 0, [1, 3, 6, 9, 12, 17, 20, 25, 30])


class TestUnloadedEquivalence:
    def test_zero_rate_matches_plain_simulation(self):
        loaded = simulate_multicast_under_load(TREE, background_rate=0.0)
        plain = simulate_multicast(TREE, 4096, NCUBE2)
        assert loaded.avg_delay == pytest.approx(plain.avg_delay)
        assert loaded.max_delay == pytest.approx(plain.max_delay)
        assert loaded.background_messages == 0
        assert loaded.multicast_blocked_time == 0.0


class TestLoadedBehaviour:
    def test_deterministic_given_seed(self):
        a = simulate_multicast_under_load(TREE, background_rate=0.005, seed=1)
        b = simulate_multicast_under_load(TREE, background_rate=0.005, seed=1)
        assert a.delays == b.delays
        assert a.background_mean_latency == b.background_mean_latency

    def test_seed_matters(self):
        a = simulate_multicast_under_load(TREE, background_rate=0.005, seed=1)
        b = simulate_multicast_under_load(TREE, background_rate=0.005, seed=2)
        assert a.background_messages != b.background_messages or a.delays != b.delays

    def test_all_destinations_still_reached(self):
        r = simulate_multicast_under_load(TREE, background_rate=0.01, seed=5)
        assert set(TREE.destinations) <= set(r.delays)

    def test_load_never_speeds_up_the_multicast(self):
        base = simulate_multicast_under_load(TREE, background_rate=0.0)
        loaded = simulate_multicast_under_load(TREE, background_rate=0.01, seed=3)
        assert loaded.avg_delay >= base.avg_delay - 1e-6

    def test_heavier_load_blocks_more(self):
        light = simulate_multicast_under_load(TREE, background_rate=0.001, seed=3)
        heavy = simulate_multicast_under_load(TREE, background_rate=0.02, seed=3)
        assert heavy.background_messages > light.background_messages
        assert heavy.multicast_blocked_time >= light.multicast_blocked_time

    def test_background_latency_positive(self):
        r = simulate_multicast_under_load(TREE, background_rate=0.005, seed=7)
        assert r.background_mean_latency > 0

    @pytest.mark.parametrize(
        "bad, rule",
        [
            pytest.param({"background_rate": -1.0}, "background_rate", id="rate-negative"),
            pytest.param({"background_rate": float("nan")}, "background_rate", id="rate-nan"),
            pytest.param({"background_rate": float("inf")}, "background_rate", id="rate-inf"),
            pytest.param({"horizon": -4.0}, "horizon", id="horizon-negative"),
            pytest.param({"horizon": float("nan")}, "horizon", id="horizon-nan"),
            pytest.param({"horizon": float("inf")}, "horizon", id="horizon-inf"),
        ],
    )
    def test_negative_rate_rejected(self, bad, rule):
        """Checked before any work: an infinite rate or a NaN or infinite
        horizon would keep the arrival loop from ever reaching the
        horizon, a NaN rate ran as rate 0, and a negative horizon failed
        in the kernel."""
        with pytest.raises(ValueError, match=f"^{rule} must be"):
            simulate_multicast_under_load(TREE, **bad)

    def test_contention_free_advantage_persists_under_load(self):
        """W-sort stays at or below U-cube for the same destination set
        under moderate load."""
        dests = sorted(TREE.destinations)
        u_tree = UCube().build_tree(5, 0, dests)
        u = simulate_multicast_under_load(u_tree, background_rate=0.005, seed=11)
        w = simulate_multicast_under_load(TREE, background_rate=0.005, seed=11)
        assert w.avg_delay <= u.avg_delay * 1.05
