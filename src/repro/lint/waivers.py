"""Inline waivers: ``# repro: lint-ok[RULE] reason``.

A waiver suppresses named rules at one location *with a recorded
reason* -- the reason is mandatory, because an unexplained suppression
is exactly the silent convention-drift the linter exists to prevent.

Placement:

- on the offending line itself::

      self.started_at_unix = time.time()  # repro: lint-ok[REP002] display only

- or on its own line directly above the offending line (for statements
  that would blow the line-length budget)::

      # repro: lint-ok[REP002] display-only trace epoch, never subtracted
      self.epoch_unix = time.time()

Several rules may share one waiver: ``lint-ok[REP001,REP004] reason``.
A waiver with no reason does not suppress anything; it is itself
reported under the REP000 tool-integrity rule.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.findings import Finding

__all__ = ["Waiver", "apply_waivers", "collect_waivers"]

#: ``# repro: lint-ok[REP001,REP004] reason text``
WAIVER_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s]*)\]\s*(.*)$")


@dataclass(slots=True)
class Waiver:
    """One parsed waiver comment."""

    rules: frozenset[str]
    reason: str
    line: int
    #: line the waiver suppresses: the comment's own line, or the next
    #: line when the comment stands alone.
    target_line: int
    used: bool = field(default=False)

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.target_line and finding.rule in self.rules


def collect_waivers(source: str, path: str) -> tuple[list[Waiver], list[Finding]]:
    """Extract waivers from ``source``; malformed ones become findings.

    Uses :mod:`tokenize` rather than a regex over raw lines so waivers
    inside string literals are never misparsed as live waivers.
    """
    waivers: list[Waiver] = []
    findings: list[Finding] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # the engine reports the parse failure itself; no waivers apply
        return [], []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = WAIVER_RE.match(tok.string)
        if match is None:
            continue
        lineno = tok.start[0]
        text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        snippet = text.strip()
        rules = frozenset(
            token.strip().upper() for token in match.group(1).split(",") if token.strip()
        )
        reason = match.group(2).strip()
        if not rules or not reason:
            findings.append(
                Finding(
                    rule="REP000",
                    path=path,
                    line=lineno,
                    col=tok.start[1] + 1,
                    message=(
                        "waiver needs at least one rule id and a non-empty reason: "
                        "'# repro: lint-ok[RULE] reason'"
                    ),
                    snippet=snippet,
                )
            )
            continue
        own_line = text[: tok.start[1]].strip() == ""
        waivers.append(
            Waiver(
                rules=rules,
                reason=reason,
                line=lineno,
                target_line=lineno + 1 if own_line else lineno,
            )
        )
    return waivers, findings


def apply_waivers(
    findings: list[Finding], waivers: list[Waiver]
) -> tuple[list[Finding], int]:
    """Drop findings covered by a waiver; return ``(kept, waived)``."""
    kept: list[Finding] = []
    waived = 0
    for finding in findings:
        covered = False
        for waiver in waivers:
            if waiver.covers(finding):
                waiver.used = True
                covered = True
        if covered:
            waived += 1
        else:
            kept.append(finding)
    return kept, waived
