"""The :class:`Finding` envelope every lint rule produces.

A finding is one violation at one source location; an inline
``# repro: lint-ok[RULE] reason`` waiver (:mod:`repro.lint.waivers`) is
the one way to suppress it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        rule: rule identifier (``"REP002"``).
        path: file path as given to the linter (repo-relative when the
            linter is invoked from the repo root).
        line: 1-based source line of the offending construct.
        col: 1-based column.
        message: human-readable description of the violation.
        snippet: the stripped source line, for context.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """One text-format line: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
