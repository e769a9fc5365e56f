"""``python -m repro.lint`` — the determinism lint front end.

Stable exit codes (the CI gate keys on them):

- ``0`` — clean: no findings,
- ``1`` — violations found,
- ``2`` — usage error (unknown rule, missing path, bad flags).

A finding is accepted only on its own line, with a justified
``# repro-lint: disable=RULE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import iter_rules, run_lint
from repro.lint.reporters import render_json, render_text

__all__ = ["build_parser", "main", "run"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="determinism & contract static analysis for this repo",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is canonical: sorted keys, compact)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule codes (repeatable)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in iter_rules():
        lines.append(f"{rule.code}  {rule.name:<20} {rule.summary}")
    return "\n".join(lines)


def run(
    paths: "list[str] | None" = None,
    fmt: str = "text",
    select: "list[str] | None" = None,
    output: "str | None" = None,
    list_rules: bool = False,
) -> int:
    """Programmatic entry point behind ``python -m repro.lint``."""
    if list_rules:
        print(_list_rules())
        return EXIT_CLEAN
    paths = paths or ["src"]
    try:
        result = run_lint(paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = render_json(result) if fmt == "json" else render_text(result)
    if output:
        Path(output).write_text(report + "\n", encoding="utf-8")
        summary = "ok" if result.ok else f"{len(result.findings)} finding(s)"
        print(f"{summary}; report written to {output}")
    else:
        print(report)
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return run(
        paths=args.paths,
        fmt=args.format,
        select=args.select,
        output=args.output,
        list_rules=args.list_rules,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
