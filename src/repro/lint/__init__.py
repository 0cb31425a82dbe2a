"""Project-invariant static analysis: ``repro.lint``.

Every guarantee this reproduction makes -- Definition-4
contention-freedom, bit-identical parallel-vs-serial sweeps,
byte-identical crash resume, single-flight canonical-JSON responses --
rests on invariants that regression tests can only check *after the
fact*: seed discipline, no wall clock in timing paths, no unordered
iteration feeding schedules, no blocking calls on the asyncio event
loop, and stable exit-code / metric-name / telemetry-kind contracts.
This package enforces them *before* the fact, as an AST pass over the
source tree (stdlib :mod:`ast` only, no new dependencies):

- :mod:`repro.lint.rules` -- the rule-plugin registry and the six
  project rules REP001..REP006 (plus the REP000 tool-integrity rule);
- :mod:`repro.lint.waivers` -- inline ``# repro: lint-ok[RULE] reason``
  waivers, the one way to suppress a finding;
- :mod:`repro.lint.engine` -- per-file analysis and the serial driver
  over a tree.

The ``repro-hypercube lint`` subcommand exposes it under the standard
exit-code contract (0 clean, 1 findings, 2 usage error); see
docs/STATIC_ANALYSIS.md for the rule catalog and workflow.
"""

from repro.lint.engine import (
    LintResult,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.rules import RULES, Rule, rule
from repro.lint.waivers import Waiver, collect_waivers

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "Waiver",
    "collect_waivers",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rule",
]
