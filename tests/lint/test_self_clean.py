"""The linter applied to its own repository: the shipped ``src/`` tree
lints clean (the CI gate assumes it)."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_src_tree_is_clean():
    result = lint_paths([_SRC])
    assert result.files > 50  # the whole package, not an empty walk
    assert result.clean, "\n".join(f.format() for f in result.findings)
    assert result.waived > 0  # the documented display-only waivers exist

