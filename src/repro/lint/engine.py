"""Per-file analysis and the tree driver.

One file is one unit of work: parse, collect import aliases, collect
waivers, then walk the tree exactly once, dispatching each node to the
rules interested in its type (:data:`repro.lint.rules.RULES`).
:func:`lint_paths` lints the files under its paths one after another,
in sorted path order.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import RULES, FileContext, Rule
from repro.lint.waivers import apply_waivers, collect_waivers

__all__ = [
    "LintResult",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


def _dispatch_table(
    rules: Iterable[Rule],
) -> dict[type[ast.AST], list[Rule]]:
    table: dict[type[ast.AST], list[Rule]] = {}
    for rule in rules:
        for node_type in rule.interests:
            table.setdefault(node_type, []).append(rule)
    return table


class _Walker(ast.NodeVisitor):
    """Single-pass dispatcher tracking ``async def`` nesting."""

    def __init__(
        self,
        table: dict[type[ast.AST], list[Rule]],
        ctx: FileContext,
        findings: list[Finding],
    ) -> None:
        self._table = table
        self._ctx = ctx
        self._findings = findings

    def generic_visit(self, node: ast.AST) -> None:
        for rule in self._table.get(type(node), ()):
            self._findings.extend(rule.check(node, self._ctx))
        super().generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._ctx.async_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._ctx.async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a sync def nested inside an async def runs off-loop (executor,
        # callback): its body is not event-loop context
        depth, self._ctx.async_depth = self._ctx.async_depth, 0
        try:
            self.generic_visit(node)
        finally:
            self._ctx.async_depth = depth


def lint_source(
    source: str, path: str, rule_ids: Sequence[str] | None = None
) -> tuple[list[Finding], int]:
    """Lint one module's source text.

    Returns ``(findings, waived)`` -- findings surviving waivers, in
    source order, and the number a waiver suppressed.  A file that does
    not parse yields one REP000 finding (the tree it hides is
    unchecked, which must be visible).
    """
    waivers, findings = collect_waivers(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        lineno = getattr(exc, "lineno", None) or 1
        findings.append(
            Finding(
                rule="REP000",
                path=path,
                line=lineno,
                col=(getattr(exc, "offset", None) or 1),
                message=f"file does not parse, so no invariants were checked: {exc.msg}"
                if isinstance(exc, SyntaxError)
                else f"file does not parse, so no invariants were checked: {exc}",
            )
        )
        return sorted(findings, key=Finding.sort_key), 0
    ctx = FileContext(path=path, lines=source.splitlines())
    ctx.collect_imports(tree)
    selected = (
        [RULES[rule_id] for rule_id in rule_ids] if rule_ids is not None else RULES.values()
    )
    _Walker(_dispatch_table(selected), ctx, findings).visit(tree)
    findings.sort(key=Finding.sort_key)
    kept, waived = apply_waivers(findings, waivers)
    return kept, waived


def lint_file(path: str) -> tuple[list[Finding], int]:
    """Lint one file by path; returns ``(findings, waived)`` as
    :func:`lint_source` does.

    An unreadable file is a REP000 finding, not an exception, so one bad
    file cannot hide the findings of the rest of the tree.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        finding = Finding(
            rule="REP000",
            path=path,
            line=1,
            col=1,
            message=f"file could not be read: {exc}",
        )
        return [finding], 0
    return lint_source(source, path)


def iter_python_files(paths: Sequence[str | os.PathLike]) -> list[str]:
    """Every ``.py`` file under ``paths``, sorted, caches skipped.

    Paths are kept exactly as given (relative stays relative), so
    invoking the linter from the repo root reports repo-relative paths.
    """
    files: set[str] = set()
    for root in paths:
        root_path = Path(root)
        if root_path.is_file():
            files.add(os.fspath(root_path))
            continue
        for current, dirnames, filenames in os.walk(root_path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in filenames:
                if name.endswith(".py"):
                    files.add(os.path.join(current, name))
    return sorted(files)


@dataclass(slots=True)
class LintResult:
    """Aggregated outcome of one :func:`lint_paths` run."""

    files: int
    findings: list[Finding] = field(default_factory=list)
    waived: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def lint_paths(paths: Sequence[str | os.PathLike]) -> LintResult:
    """Lint every Python file under ``paths``.

    Files are linted in sorted path order and each file's findings come
    in source order, so the result is already in
    :meth:`Finding.sort_key` order.
    """
    files = iter_python_files(paths)
    result = LintResult(files=len(files))
    for path in files:
        findings, waived = lint_file(path)
        result.findings.extend(findings)
        result.waived += waived
    return result
