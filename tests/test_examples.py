"""The examples are part of the public surface: a removed or renamed
public name must break Tier-1, not a user's first run.

Every ``examples/*.py`` guards ``main()`` behind ``__name__ ==
"__main__"``, so importing one resolves all of its ``repro`` imports
without running it.  The storage-budget example is additionally *run*:
it is the batch front door (the controller with frozen models).  The
prose that shows users what to type — README, ``docs/``, the examples —
may only name probe modes that exist, no execution backend (ranks run
in one process and there is nothing to choose), and none of the retired
compressor knobs: a compressor is its spec, the registry a fixed table.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.models.calibration import PROBE_MODES

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
USER_FACING = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), *EXAMPLES]
_MODE_LITERAL = re.compile(r"""probe_mode=["'](\w+)["']|--probe-mode[ =](\w+)""")
_RETIRED_BACKEND = re.compile(r"""ProcessBackend|backend=["']process["']|--backend\b""")
_RETIRED_KNOBS = re.compile(
    r"register_builtin_families|\.register\(|ZlibCodec\(level|HuffmanCodec\(level"
    r"|max_code_length="
)


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


@pytest.mark.parametrize("path", USER_FACING, ids=lambda p: p.name)
def test_only_real_probe_modes_are_documented(path):
    named = {py or cli for py, cli in _MODE_LITERAL.findall(path.read_text())}
    assert named <= set(PROBE_MODES)


@pytest.mark.parametrize("path", USER_FACING, ids=lambda p: p.name)
def test_only_real_backends_are_documented(path):
    assert _RETIRED_BACKEND.findall(path.read_text()) == []


@pytest.mark.parametrize("path", USER_FACING, ids=lambda p: p.name)
def test_no_retired_compressor_knobs_are_documented(path):
    assert _RETIRED_KNOBS.findall(path.read_text()) == []


def test_campaign_storage_budget_runs(capsys):
    _load(next(p for p in EXAMPLES if p.stem == "campaign_storage_budget")).main()
    out = capsys.readouterr().out
    assert "Per-field ratios" in out and "Per-snapshot ratios" in out
    assert "overall campaign ratio: 6.7x" in out


def test_insitu_campaign_runs(capsys):
    """64 ranks over five snapshots on the one execution path."""
    _load(next(p for p in EXAMPLES if p.stem == "insitu_campaign")).main()
    out = capsys.readouterr().out
    assert "In situ campaign on baryon_density (64 ranks" in out
    assert out.count("\n") > 5
