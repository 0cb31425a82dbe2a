"""Markdown report generation: paper-vs-measured for every figure.

``python -m repro report`` regenerates all six figures (fast or full
parameters), evaluates each against the paper's shape criteria
(:mod:`repro.analysis.shapes`), and emits a self-contained markdown
document -- the machine-generated core of EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.analysis.experiments import EXPERIMENTS, run_sweep
from repro.analysis.shapes import FIGURE_CRITERIA, check_figure
from repro.analysis.tables import Table

__all__ = ["markdown_report"]

_PAPER_NOTES = {
    "fig9": "Average (100 random sets/point) of the max steps to multicast "
    "in a 6-cube. Paper: U-cube staircase; new algorithms below it and smooth.",
    "fig10": "Same on a 10-cube. Paper: the gap widens with system size.",
    "fig11": "Average delay, 4096-byte messages, 5-cube nCUBE-2, 20 sets/point. "
    "Paper: all multiport algorithms beat U-cube; U-cube's multicast average "
    "can exceed its broadcast average.",
    "fig12": "Maximum delay, same setting. Paper: U-cube staircase visible; "
    "new algorithms smooth it.",
    "fig13": "Average delay, 10-cube MultiSim simulation, 100 sets/point. "
    "Paper: W-sort's advantage becomes obvious at scale.",
    "fig14": "Maximum delay, same setting.",
}


def figure_section(fig_id: str, table: Table) -> str:
    lines = [f"### {table.title}", ""]
    note = _PAPER_NOTES.get(fig_id)
    if note:
        lines += [f"*Paper:* {note}", ""]
    lines.append("```")
    lines.append(table.render(2))
    lines.append("```")
    lines.append("")
    lines.append("| claim | verdict | detail |")
    lines.append("|---|---|---|")
    for c in check_figure(fig_id, table):
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"| {c.claim} | {verdict} | {c.detail} |")
    lines.append("")
    return "\n".join(lines)


def markdown_report(fast: bool = True, figures: list[str] | None = None) -> str:
    """Regenerate figures and produce the paper-vs-measured report."""
    fig_ids = figures if figures is not None else sorted(FIGURE_CRITERIA)
    mode = "fast sweep" if fast else "paper-parity parameters (REPRO_FULL)"
    parts = [
        "## Regenerated evaluation (Section 5 of the paper)",
        "",
        f"Mode: {mode}.  All runs are deterministic (seeded).",
        "",
    ]
    for fig_id in fig_ids:
        if fig_id not in EXPERIMENTS:
            raise KeyError(f"unknown figure {fig_id!r}")
    # one sweep: figures that share points (11/12, 13/14) compute them once
    tables = run_sweep(fig_ids, fast=fast)
    parts.extend(figure_section(fig_id, tables[fig_id]) for fig_id in fig_ids)
    return "\n".join(parts)
