"""Lint reporters: human text and canonical machine JSON."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult

__all__ = ["render_json", "render_text"]

#: Version of the JSON report schema (CI artifacts key on it).
#: 2 dropped the baseline keys (``baselined``, ``stale_baseline``).
REPORT_VERSION = 2


def render_text(result: LintResult) -> str:
    """``path:line:col: CODE message`` lines plus a one-line summary."""
    lines = [
        f"{f.location()}: {f.rule} {f.message}" for f in result.findings
    ]
    tail = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    if result.ok:
        lines.append(f"ok: {result.files_checked} files clean{tail}")
    else:
        lines.append(
            f"FAILED: {len(result.findings)} finding(s) "
            f"in {result.files_checked} files{tail}"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Canonical JSON report (sorted keys — the linter lints itself)."""
    payload = {
        "version": REPORT_VERSION,
        "ok": result.ok,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "content": f.content,
            }
            for f in result.findings
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
