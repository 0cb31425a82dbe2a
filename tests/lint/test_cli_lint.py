"""Subprocess tests for the ``lint`` subcommand's exit-code contract.

The contract the CI job gates on: 0 clean tree, 1 findings, 2 usage
error.  Golden-output tests pin the ``--format text`` and
``--format json`` shapes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]

#: A module with exactly one violation: wall-clock duration (REP002)
#: at line 5, column 12.
_BAD_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def uptime(start):\n"
    "    return time.time() - start\n"
)

_REP002_MESSAGE = (
    "time.time() is not monotonic -- use time.monotonic() or "
    "time.perf_counter() for durations; waive only display-only "
    "wall-clock timestamps"
)


def _run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, cwd=cwd or _REPO_ROOT, capture_output=True, text=True, timeout=300,
    )


def _write_fixture(tmp_path: Path) -> Path:
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_SOURCE, encoding="utf-8")
    return bad


class TestExitCodes:
    def test_exit_0_on_clean_shipped_tree(self):
        """The committed tree must lint clean."""
        proc = _run_cli("lint")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_exit_1_on_injected_violation(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), cwd=tmp_path)
        assert proc.returncode == 1
        assert "REP002" in proc.stdout

    def test_exit_2_on_unknown_rule(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), "--select", "REP999", cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_exit_2_on_missing_path(self, tmp_path):
        proc = _run_cli("lint", str(tmp_path / "absent"), cwd=tmp_path)
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_report_only_downgrades_to_exit_0(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), "--report-only", cwd=tmp_path)
        assert proc.returncode == 0
        assert "REP002" in proc.stdout

    def test_select_other_rule_passes(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), "--select", "REP001", cwd=tmp_path)
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "select",
        [["--select", "REP002"], ["--select", "REP001,REP002"],
         ["--select", "REP001", "--select", "REP002"]],
        ids=["one", "comma-list", "repeated"],
    )
    def test_select_before_the_path_reports_its_finding(self, tmp_path, select):
        """``--select`` takes one value, so a path after it is a path
        (the working directory has no ``src`` to fall back on)."""
        _write_fixture(tmp_path)
        proc = _run_cli("lint", *select, "bad.py", cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith("bad.py:5:12: REP002 ")

    def test_exit_2_on_unknown_rule_before_the_path(self, tmp_path):
        _write_fixture(tmp_path)
        proc = _run_cli("lint", "--select", "REP999", "bad.py", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "lint: unknown rule(s): REP999 (known: " in proc.stderr

    @pytest.mark.parametrize(
        "option",
        [["--baseline", "x"], ["--update-baseline"], ["--jobs", "2"], ["--parallel"]],
        ids=["baseline", "update-baseline", "jobs", "parallel"],
    )
    def test_exit_2_on_an_option_lint_does_not_take(self, tmp_path, option):
        """Waivers are the one suppression and files lint serially, so
        there is no baseline to name and no worker count to give."""
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), *option, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: " + " ".join(option) in proc.stderr


class TestGoldenText:
    def test_finding_line_and_summary(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), cwd=tmp_path)
        lines = proc.stdout.splitlines()
        assert lines[0] == f"{bad}:5:12: REP002 {_REP002_MESSAGE}"
        assert lines[-1] == "lint: 1 file(s) checked, 1 finding(s) (0 waived)"

    def test_clean_summary(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import time\n\nSTART = time.monotonic()\n", encoding="utf-8")
        proc = _run_cli("lint", str(good), cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["lint: 1 file(s) checked, clean (0 waived)"]


class TestGoldenJson:
    def test_json_payload_shape(self, tmp_path):
        bad = _write_fixture(tmp_path)
        proc = _run_cli("lint", str(bad), "--format", "json", cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["schema"] == 1
        assert payload["paths"] == [str(bad)]
        assert payload["files"] == 1
        assert payload["counts"] == {"findings": 1, "waived": 0}
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP002"
        assert finding["path"] == str(bad)
        assert (finding["line"], finding["col"]) == (5, 12)
        assert finding["message"] == _REP002_MESSAGE
        assert finding["snippet"] == "return time.time() - start"

    def test_json_clean_tree(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("VALUE = 1\n", encoding="utf-8")
        proc = _run_cli("lint", str(good), "--format", "json", cwd=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["clean"] is True
        assert payload["findings"] == []

