"""The scripts under ``benchmarks/`` that no test runs still import and
reach the compressor front they measure.

``payload_layouts.py`` and ``fit_rate_estimator.py`` print tables or
constants; nothing asserts them, so a renamed or deleted name they use
(they reach into the front's private entry points) would otherwise
surface only on their next manual run.  Each is loaded from its file,
as ``test_examples.py`` loads the examples, and driven on a tiny input.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.compression.sz import SZCompressor

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_layouts_runs_on_a_small_grid(monkeypatch, capsys):
    script = _load("payload_layouts")
    monkeypatch.setattr(sys, "argv", ["payload_layouts.py", "--grid", "16", "--block", "8"])
    script.main()
    out = capsys.readouterr().out
    assert "folded, minimal width, planes (layout 2)" in out
    assert "members stored (save_blocks)" in out


def test_fit_rate_estimator_reads_the_front_and_the_model_constants(capsys):
    script = _load("fit_rate_estimator")
    assert callable(script.collect)
    rng = np.random.default_rng(0)
    views = [rng.normal(0, 1, (6, 5, 4)) for _ in range(3)]
    rows = script.symbol_rows(SZCompressor(), views, 0.01)
    blocks = SZCompressor().compress_many(views, [0.01] * 3)
    assert rows.shape == (3, 120)
    assert [int((row == 0).sum()) for row in rows] == [b.n_outliers for b in blocks]
    # The fits read the estimator's constants by name: run them on a
    # few synthetic samples.
    n = 4096
    deflate = [
        dict(n=n, k=k, h=list(rng.uniform(0.5, 7.5, k)), d=40 * k, nbytes=int(n * k * 0.6))
        for k in (1, 1, 2, 2, 2, 4) * 3
    ]
    huffman = [
        dict(n=n, h=float(h), used=60, nbytes=int(n * h / 8) + 200)
        for h in rng.uniform(0.5, 9.0, 18)
    ]
    script.fit_deflate(deflate)
    script.fit_huffman(huffman)
    out = capsys.readouterr().out
    assert "_DEFLATE_EFF_G =" in out and "_HUFF_ZLIB_G =" in out
