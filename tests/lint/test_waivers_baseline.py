"""Waiver parsing and placement: inline waivers are the one way to
suppress a finding."""

from __future__ import annotations

import textwrap

from repro.lint.engine import lint_source


def _lint(source: str):
    return lint_source(textwrap.dedent(source), "snippet.py")


class TestWaivers:
    def test_inline_waiver_suppresses(self):
        found, waived = _lint(
            """
            import time

            started = time.time()  # repro: lint-ok[REP002] display-only timestamp
            """
        )
        assert found == []
        assert waived == 1

    def test_own_line_waiver_targets_next_line(self):
        found, waived = _lint(
            """
            import time

            # repro: lint-ok[REP002] display-only timestamp, line kept short
            started = time.time()
            """
        )
        assert found == []
        assert waived == 1

    def test_waiver_does_not_leak_past_its_line(self):
        found, waived = _lint(
            """
            import time

            a = time.time()  # repro: lint-ok[REP002] display only
            b = time.time()
            """
        )
        assert waived == 1
        assert [f.line for f in found] == [5]

    def test_wrong_rule_id_does_not_suppress(self):
        found, waived = _lint(
            """
            import time

            started = time.time()  # repro: lint-ok[REP001] not the right rule
            """
        )
        assert waived == 0
        assert [f.rule for f in found] == ["REP002"]

    def test_multi_rule_waiver(self):
        found, waived = _lint(
            """
            import random

            # repro: lint-ok[REP001,REP002] fixture exercising both rules at once
            x = random.random()
            """
        )
        assert found == []
        assert waived == 1

    def test_missing_reason_is_rep000(self):
        found, _waived = _lint(
            """
            import time

            started = time.time()  # repro: lint-ok[REP002]
            """
        )
        rules = sorted(f.rule for f in found)
        # the reasonless waiver is reported AND does not suppress
        assert rules == ["REP000", "REP002"]

    def test_waiver_inside_string_literal_is_inert(self):
        found, waived = _lint(
            '''
            import time

            DOC = "# repro: lint-ok[REP002] not a real waiver"
            started = time.time()
            '''
        )
        assert waived == 0
        assert [f.rule for f in found] == ["REP002"]

