"""Rule-registry AST analysis engine.

One :class:`ModuleContext` is built per file (parsed tree, parent links,
import-alias resolution); every registered :class:`Rule` is a focused
:class:`ast.NodeVisitor` that walks the tree once and records
:class:`Finding`\\ s.  Findings are filtered through per-line
``# repro-lint: disable=RULE`` suppressions before they are reported —
the one way to accept a finding.

The engine is deliberately self-hosting-clean: it iterates directories
in sorted order, serializes canonically, and narrows every exception it
catches — the linter passes its own rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

__all__ = [
    "PARSE_ERROR",
    "Finding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "RULES",
    "iter_python_files",
    "iter_rules",
    "lint_source",
    "register_rule",
    "run_lint",
]

#: Pseudo-rule code attached to findings for files that fail to parse.
#: Not a registered rule (it cannot be disabled — a
#: file the engine cannot read is a file no rule has vetted).
PARSE_ERROR = "E001"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    ``content`` is the stripped source line the finding sits on (the
    JSON report carries it, so a finding reads without the file).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    content: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


# -- suppressions ------------------------------------------------------------

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


def suppressed_rules(line_text: str) -> frozenset[str]:
    """Rule codes disabled by a ``# repro-lint: disable=...`` comment.

    The comment silences exactly the listed rules on exactly its own
    physical line (the line a finding anchors to); it is not a block or
    file pragma.
    """
    match = _DISABLE_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip()
    )


# -- per-module semantic context ---------------------------------------------


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted import path they are bound to.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random as nr`` maps ``nr -> numpy.random``; ``import os.path`` binds
    the root name ``os``.  Relative imports resolve package-locally and
    are recorded with their leading dots so absolute-path rules never
    match them by accident.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{module}.{name.name}"
    return aliases


class ModuleContext:
    """Everything the rules share about one module: tree, parents, aliases."""

    def __init__(self, path: str, tree: ast.AST, source: str) -> None:
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        self.aliases = _collect_aliases(tree)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted import path of a ``Name``/``Attribute`` chain, or ``None``.

        ``np.random.rand`` resolves to ``"numpy.random.rand"`` under
        ``import numpy as np``; a chain rooted at a local variable (or
        anything that is not a plain name chain) resolves to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


# -- rule base + registry ----------------------------------------------------


class Rule(ast.NodeVisitor):
    """One determinism/contract check: visits a module, records findings.

    Subclasses set the class metadata (``code``, ``name``, ``summary``,
    ``rationale``) and implement ``visit_*`` methods that call
    :meth:`flag`.  ``exempt`` lists path patterns the rule never applies
    to — a trailing ``/`` matches a package prefix anywhere in the path,
    otherwise the pattern is a path suffix (the sanctioned wrapper
    modules exempt themselves this way).  ``only``, when non-empty,
    restricts the rule to paths matching one of its patterns (same
    matcher semantics); ``exempt`` still subtracts from that set.
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    exempt: ClassVar[tuple[str, ...]] = ()
    only: ClassVar[tuple[str, ...]] = ()

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @staticmethod
    def _matches(posix: str, pattern: str) -> bool:
        if pattern.endswith("/"):
            return pattern in posix or posix.startswith(pattern)
        return posix.endswith(pattern)

    @classmethod
    def applies_to(cls, path: str) -> bool:
        posix = path.replace("\\", "/")
        if cls.only and not any(cls._matches(posix, p) for p in cls.only):
            return False
        return not any(cls._matches(posix, p) for p in cls.exempt)

    def flag(self, node: ast.AST, message: str | None = None) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message or self.summary,
                content=self.ctx.line_text(line).strip(),
            )
        )


RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Register a :class:`Rule` subclass under its ``code``."""
    if not (isinstance(cls, type) and issubclass(cls, Rule)):
        raise TypeError(f"expected a Rule subclass, got {cls!r}")
    if not cls.code or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code!r}")
    RULES[cls.code] = cls
    return cls


def iter_rules() -> list[type[Rule]]:
    """Registered rules in code order (stable for reports and docs)."""
    return [RULES[code] for code in sorted(RULES)]


def _select_rules(select: "list[str] | None") -> list[type[Rule]]:
    if select is None:
        return iter_rules()
    unknown = [code for code in select if code not in RULES]
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {unknown}; registered: {sorted(RULES)}"
        )
    return [RULES[code] for code in sorted(select)]


# -- linting one module ------------------------------------------------------


def _lint_module(
    source: str, path: str, rules: list[type[Rule]]
) -> tuple[list[Finding], int]:
    """All findings for one module plus the count suppressed by pragmas."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        finding = Finding(
            path=path,
            line=line,
            col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], 0
    ctx = ModuleContext(path, tree, source)
    findings: list[Finding] = []
    for rule_cls in rules:
        if not rule_cls.applies_to(path):
            continue
        rule = rule_cls(ctx)
        rule.visit(tree)
        findings.extend(rule.findings)
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if finding.rule in suppressed_rules(ctx.line_text(finding.line)):
            suppressed += 1
        else:
            kept.append(finding)
    return sorted(kept), suppressed


def lint_source(
    source: str, path: str = "<memory>", select: "list[str] | None" = None
) -> list[Finding]:
    """Lint a source string; the unit-test entry point.

    Returns the findings that survive line suppressions, sorted by
    position.  ``select`` restricts the run to the given rule codes.
    """
    findings, _ = _lint_module(source, path, _select_rules(select))
    return findings


# -- walking the tree --------------------------------------------------------


def iter_python_files(paths: "list[str | Path]") -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated module list.

    Directories are walked recursively in sorted order (the engine obeys
    its own RL001); hidden directories and ``__pycache__`` are skipped.
    """
    files: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(p == "__pycache__" or p.startswith(".") for p in parts):
                    continue
                files.setdefault(candidate, None)
        elif path.is_file():
            files.setdefault(path, None)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


@dataclass
class LintResult:
    """Outcome of one lint run over a set of paths."""

    findings: list[Finding]
    suppressed: int
    files_checked: int

    @property
    def ok(self) -> bool:
        """Clean run: nothing to report."""
        return not self.findings


def run_lint(
    paths: "list[str | Path]",
    select: "list[str] | None" = None,
) -> LintResult:
    """Lint every module under ``paths``."""
    rules = _select_rules(select)
    files = iter_python_files(paths)
    findings: list[Finding] = []
    suppressed = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        module_findings, module_suppressed = _lint_module(
            source, path.as_posix(), rules
        )
        findings.extend(module_findings)
        suppressed += module_suppressed
    return LintResult(
        findings=sorted(findings),
        suppressed=suppressed,
        files_checked=len(files),
    )
