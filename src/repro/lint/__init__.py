"""repro.lint — determinism & contract static analysis for this repo.

The system's headline guarantees (byte-for-byte ledger replay,
payloads byte-identical across refactors) have each been broken by the
same small class of Python hazards: unsorted filesystem iteration, set
order escaping into output, global RNG state, non-canonical JSON, ad-hoc
wall-clock reads, order-sensitive float accumulation, swallowed
exceptions, mutable defaults, compressor construction that bypasses the
capability-checked registry, and pickled state.  This
package catches those at review time with AST-level rules instead of at
replay time:

- :mod:`repro.lint.engine` — per-rule :class:`ast.NodeVisitor` passes
  over a shared :class:`ModuleContext` (import/alias resolution, parent
  links), ``# repro-lint: disable=RULE`` line suppressions,
- :mod:`repro.lint.rules` — the rule catalog (``RL001``..``RL014``),
- :mod:`repro.lint.reporters` — text and canonical-JSON reports,
- :mod:`repro.lint.cli` — ``python -m repro.lint`` with stable exit
  codes (0 clean, 1 findings, 2 usage error).
"""

from repro.lint.engine import (
    PARSE_ERROR,
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    iter_python_files,
    iter_rules,
    lint_source,
    register_rule,
    run_lint,
)
from repro.lint.reporters import render_json, render_text

# Importing the catalog registers every built-in rule with the engine.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleContext",
    "PARSE_ERROR",
    "Rule",
    "iter_python_files",
    "iter_rules",
    "lint_source",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
]
