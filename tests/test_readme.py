"""README's library snippet is run as written: a renamed public name or
a retired attribute in it breaks Tier-1, not a reader's first try."""

from __future__ import annotations

import re
from pathlib import Path

from repro import telemetry

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    text = README.read_text()
    section = text[text.index("Library use:"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_snippet_runs(capsys):
    exec(compile(_library_snippet(), str(README), "exec"), {"__name__": "readme"})
    ratio, overhead = (float(v) for v in capsys.readouterr().out.split())
    assert ratio > 1.0
    assert overhead > 0.0  # read from the rank loop's spans
    assert not telemetry.enabled()  # the snippet's armed scope closed
