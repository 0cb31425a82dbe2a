"""Tests for the shape criteria, table parsing, and report generation."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_experiment
from repro.analysis.report import figure_section, markdown_report
from repro.analysis.shapes import FIGURE_CRITERIA, check_figure
from repro.analysis.tables import Table
from repro.obs.sink import capture


def staircase_table():
    """A synthetic table satisfying all fig9 criteria."""
    xs = [1, 3, 7, 8, 16, 32, 48, 63]
    import math

    ucube = [float(math.ceil(math.log2(m + 1))) for m in xs]
    wsort = [max(1.0, u - 1.0) for u in ucube]
    combine = [max(1.0, u - 0.5) for u in ucube]
    maxport = [u + 0.2 for u in ucube]
    return Table(
        "synthetic fig9",
        "m",
        xs,
        {"ucube": ucube, "maxport": maxport, "combine": combine, "wsort": wsort},
    )


class TestCheckFigure:
    def test_all_figures_have_criteria(self):
        assert set(FIGURE_CRITERIA) == {f"fig{i}" for i in range(9, 15)}

    def test_synthetic_fig9_passes(self):
        results = check_figure("fig9", staircase_table())
        assert all(c.passed for c in results), [c.detail for c in results if not c.passed]

    def test_broken_staircase_detected(self):
        t = staircase_table()
        t.columns["ucube"][2] += 1.0
        results = check_figure("fig9", t)
        assert not results[0].passed
        assert "m=" in results[0].detail

    def test_wsort_regression_detected(self):
        t = staircase_table()
        t.columns["wsort"] = [u + 1.0 for u in t.columns["ucube"]]
        results = check_figure("fig9", t)
        assert any(not c.passed for c in results)

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            check_figure("fig99", staircase_table())


class TestTableParse:
    def test_roundtrip(self):
        t = staircase_table()
        t.notes.append("a note")
        parsed = Table.parse(t.render(2))
        assert parsed.x_values == t.x_values
        assert set(parsed.columns) == set(t.columns)
        for name in t.columns:
            assert parsed.columns[name] == pytest.approx(t.columns[name], abs=0.01)
        assert parsed.notes == ["a note"]

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            Table.parse("not\na\ntable")

    def test_malformed_row_rejected(self):
        t = staircase_table()
        text = t.render(2) + "\n 1 2"
        with pytest.raises(ValueError):
            Table.parse(text)


class TestReport:
    def test_figure_section_contains_verdicts(self):
        section = figure_section("fig9", staircase_table())
        assert "| PASS |" in section
        assert "```" in section

    def test_markdown_report_single_figure(self):
        rep = markdown_report(fast=True, figures=["fig9"])
        assert "Figure 9" in rep
        assert "FAIL" not in rep

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            markdown_report(figures=["nope"])

    def test_shared_points_simulate_once(self):
        """Figure 12 reads Figure 11's points: one report simulates
        them once, as many multicasts as Figure 11 alone."""
        with capture() as alone:
            run_experiment("fig11", fast=True)
        with capture() as both:
            markdown_report(fast=True, figures=["fig11", "fig12"])
        multicasts = [r for r in alone.records if r.kind == "multicast"]
        assert multicasts
        assert len([r for r in both.records if r.kind == "multicast"]) == len(multicasts)
