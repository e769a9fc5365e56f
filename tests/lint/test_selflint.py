"""The repo lints itself clean.

This is the end-state acceptance check: every rule the linter ships is
satisfied by the tree it ships in, with no carried debt.  If this test
fails, either fix the new violation or add a justified
``# repro-lint: disable=...`` on the offending line.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import run_lint
from repro.lint.reporters import render_text

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_is_clean():
    result = run_lint([SRC])
    assert result.files_checked > 50  # sanity: the walk actually found the tree
    assert result.ok, "\n" + render_text(result)
    assert result.findings == []
