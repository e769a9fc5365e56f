"""The examples are part of the public surface: a removed or renamed
public name must break Tier-1, not a user's first run.

Every ``examples/*.py`` guards ``main()`` behind ``__name__ ==
"__main__"``, so importing one resolves all of its ``repro`` imports
without running it.  The storage-budget example is additionally *run*:
it is the batch front door (the controller with frozen models).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    assert callable(_load(path).main)


def test_campaign_storage_budget_runs(capsys):
    _load(next(p for p in EXAMPLES if p.stem == "campaign_storage_budget")).main()
    out = capsys.readouterr().out
    assert "Per-field ratios" in out and "Per-snapshot ratios" in out
    assert "overall campaign ratio: 6.7x" in out
