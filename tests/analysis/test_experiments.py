"""Tests for the experiment harness and the figures' shape criteria.

These encode DESIGN.md's shape assertions: not absolute microseconds,
but who wins, the staircase, the smoothing, and the crossovers the
paper reports.
"""

from __future__ import annotations

import math
from statistics import mean

import pytest

from repro.analysis import run_experiment
from repro.analysis.delay import _delay_point, _DelayPoint, delay_experiment
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.steps import _steps_point, _StepsPoint, stepwise_experiment
from repro.analysis.tables import Table, geometric_grid, linear_grid
from repro.analysis.workloads import random_destination_sets
from repro.multicast.ports import ALL_PORT
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.obs.sink import capture
from repro.obs.trace_spans import trace_capture
from repro.parallel.cache import compute_delay_stats
from repro.simulator.params import NCUBE2


class TestTable:
    def test_render_contains_values(self):
        t = Table("T", "m", [1, 2], {"a": [1.5, 2.5], "b": [3.0, 4.0]})
        out = t.render(1)
        assert "1.5" in out and "4.0" in out and "T" in out

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("T", "m", [1, 2], {"a": [1.0]})

    def test_row_and_column(self):
        t = Table("T", "m", [1, 2], {"a": [1.0, 2.0]})
        assert t.row(2) == {"a": 2.0}
        assert t.column("a") == [1.0, 2.0]

    def test_grids(self):
        assert linear_grid(2, 10, 2) == [2, 4, 6, 8, 10]
        assert linear_grid(1, 10, 4) == [1, 5, 9, 10]
        g = geometric_grid(1, 1000, 4)
        assert g[0] == 1 and g[-1] == 1000
        assert g == sorted(set(g))
        with pytest.raises(ValueError):
            geometric_grid(0, 10, 3)


class TestPointMemo:
    """A point computes each distinct destination set once per
    algorithm.  At n=3, m=7 every one of the 5 sets is the broadcast
    set, so the four paper algorithms need 4 tree builds, not 20."""

    N, M, SETS, SEED = 3, 7, 5, 1993

    def _sets(self) -> list[list[int]]:
        sets = random_destination_sets(self.N, self.M, self.SETS, seed=self.SEED)
        assert len({tuple(dests) for dests in sets}) == 1
        return sets

    def test_delay_point_simulates_each_distinct_set_once(self):
        spec = _DelayPoint(
            self.N, self.M, self.SETS, self.SEED, 0, PAPER_ALGORITHMS, 4096, NCUBE2, ALL_PORT
        )
        with capture() as sink, trace_capture() as tracer:
            point = _delay_point(spec)
        assert sum(r.kind == "multicast" for r in sink.records) == 4
        assert sum(s.name == "schedule.build" for s in tracer.spans) == 4
        for name in PAPER_ALGORITHMS:
            stats = [
                compute_delay_stats(name, self.N, 0, dests, 4096, NCUBE2, ALL_PORT)
                for dests in self._sets()
            ]
            assert point[name] == (
                mean(s["avg_delay_us"] for s in stats),
                mean(s["max_delay_us"] for s in stats),
                mean(s["total_blocked_us"] for s in stats),
            )

    def test_steps_point_schedules_each_distinct_set_once(self):
        spec = _StepsPoint(self.N, self.M, self.SETS, self.SEED, 0, PAPER_ALGORITHMS, ALL_PORT)
        with trace_capture() as tracer:
            point = _steps_point(spec)
        assert sum(s.name == "schedule.build" for s in tracer.spans) == 4
        for name in PAPER_ALGORITHMS:
            counts = [
                get_algorithm(name).schedule(self.N, 0, dests, ALL_PORT).max_step
                for dests in self._sets()
            ]
            assert point[name] == (mean(counts), min(counts), max(counts))


class TestStepwiseShapes:
    """Figure 9/10 shape criteria on a reduced sweep."""

    @pytest.fixture(scope="class")
    def res(self):
        return stepwise_experiment(
            n=6, m_values=[1, 4, 8, 16, 24, 32, 48, 63], sets_per_point=30, seed=11
        )

    def test_ucube_staircase(self, res):
        """U-cube's mean max steps equal ceil(log2(m+1)) exactly."""
        for m, steps in res.series("ucube"):
            assert steps == pytest.approx(math.ceil(math.log2(m + 1)))

    def test_all_port_algorithms_never_worse(self, res):
        # Combine/W-sort never exceed U-cube; Maxport can (Section 4.1)
        # but only slightly in the mean
        for name in ("combine", "wsort"):
            for (m, s), (_, u) in zip(res.series(name), res.series("ucube")):
                assert s <= u + 1e-9
        for (m, s), (_, u) in zip(res.series("maxport"), res.series("ucube")):
            assert s <= u + 0.5

    def test_wsort_best_at_moderate_m(self, res):
        for m in (16, 24, 32):
            row = {name: dict(res.series(name))[m] for name in res.mean_steps}
            assert row["wsort"] <= min(row["maxport"], row["combine"]) + 1e-9
            assert row["wsort"] < row["ucube"]

    def test_smoothing(self, res):
        """The new algorithms vary continuously where U-cube jumps:
        their per-point variance between staircase plateaus is non-zero."""
        wsort = dict(res.series("wsort"))
        # strictly increasing on average across the sweep (no plateaus
        # pinned to the staircase)
        values = [wsort[m] for m in (4, 8, 16, 24, 32, 48)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert any(v != math.ceil(math.log2(m + 1)) for m, v in wsort.items())

    def test_min_max_bracket_mean(self, res):
        for name in res.mean_steps:
            for lo, mu, hi in zip(
                res.min_steps[name], res.mean_steps[name], res.max_steps[name]
            ):
                assert lo <= mu <= hi


class TestDelayShapes:
    """Figure 11-14 shape criteria on a reduced sweep (5-cube)."""

    @pytest.fixture(scope="class")
    def res(self):
        return delay_experiment(
            n=5, m_values=[1, 4, 8, 16, 24, 31], sets_per_point=10, seed=23
        )

    def test_ucube_dominated(self, res):
        """All multiport algorithms beat U-cube on average delay for
        non-trivial destination counts."""
        for name in ("maxport", "combine", "wsort"):
            for m, v in res.series(name, "avg"):
                if m >= 4:
                    u = dict(res.series("ucube", "avg"))[m]
                    assert v < u + 1e-6

    def test_broadcast_anomaly(self, res):
        """Figure 11's anomaly: U-cube average delay for some multicast
        is *worse* than for full broadcast."""
        u = dict(res.series("ucube", "avg"))
        assert max(u[m] for m in (16, 24)) > u[31]

    def test_all_algorithms_equal_at_broadcast_and_unicast(self, res):
        for metric in ("avg", "max"):
            for m in (1, 31):
                vals = {name: dict(res.series(name, metric))[m] for name in res.avg_delay}
                assert max(vals.values()) == pytest.approx(min(vals.values()))

    def test_max_ge_avg(self, res):
        for name in res.avg_delay:
            for a, mx in zip(res.avg_delay[name], res.max_delay[name]):
                assert mx >= a - 1e-9

    def test_delays_grow_with_m(self, res):
        for name in res.avg_delay:
            series = res.avg_delay[name]
            assert series[-1] > series[0]

    def test_wsort_never_blocks(self, res):
        assert all(b == 0.0 for b in res.blocked_time["wsort"])


class TestExperimentRegistry:
    def test_all_figures_present(self):
        for fid in ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14"):
            assert fid in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig9_fast_runs(self):
        t = run_experiment("fig9", fast=True)
        assert t.x_values[0] == 1
        assert set(t.columns) == {"ucube", "maxport", "combine", "wsort"}

    def test_ablation_wsort_fast_runs(self):
        t = run_experiment("ablation-wsort", fast=True)
        # weighted_sort never hurts Maxport
        for w, m in zip(t.column("wsort"), t.column("maxport")):
            assert w <= m + 1e-9

    def test_ablation_resolution_fast_runs(self):
        t = run_experiment("ablation-resolution", fast=True)
        # aggregate step counts are resolution-order invariant in
        # distribution; with paired uniform sets the means are close
        for d, a in zip(t.column("desc"), t.column("asc")):
            assert abs(d - a) <= 0.5

    def test_ablation_ports_ordering(self):
        t = run_experiment("ablation-ports", fast=True)
        for one, two, allp in zip(
            t.column("one-port"), t.column("2-port"), t.column("all-port")
        ):
            assert allp <= two + 1e-6 <= one + 1e-6

    def test_ablation_concurrent_fast_runs(self):
        t = run_experiment("ablation-concurrent", fast=True)
        assert t.x_values == [1, 2, 4, 8]
        # interference only slows things down, and wsort keeps the lead
        for name in t.columns:
            col = t.column(name)
            assert col[-1] >= col[0] * 0.98
        for i in range(len(t.x_values)):
            assert t.column("wsort")[i] < t.column("ucube")[i]

    def test_ablation_sensitivity_fast_runs(self):
        t = run_experiment("ablation-sensitivity", fast=True)
        # improvement stays positive across the whole grid
        for name in t.columns:
            assert all(v > 0 for v in t.column(name))
