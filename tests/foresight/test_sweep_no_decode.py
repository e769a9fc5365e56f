"""A measured sweep cell scores the encoder's own reconstruction: the
``compress_many(..., out=)`` contract writes the decoder's bits, so no
cell decodes what it has just encoded."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import api, regression, sz
from repro.foresight.quality import QualityCriteria
from repro.foresight.sweep import run_sweep
from repro.parallel.decomposition import BlockDecomposition

EBS = [1e-3, 1e-2, 5e-2]


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(3)
    return np.cumsum(rng.normal(0, 0.05, (32, 32, 32)), axis=0) + 5.0


def _forbid_decode(monkeypatch) -> None:
    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a sweep cell decoded its blocks")

    monkeypatch.setattr(api, "decompress_many", boom)
    monkeypatch.setattr(sz, "decompress_many", boom)
    monkeypatch.setattr(sz, "decompress", boom)
    monkeypatch.setattr(sz, "_decompress_chunk", boom)
    monkeypatch.setattr(regression, "decompress", boom)


@pytest.mark.parametrize("spec", ["sz", "sz_adaptive"])
@pytest.mark.parametrize("decomposition", [BlockDecomposition((32, 32, 32), (2, 2, 2)), None])
def test_exact_cells_never_decode(field, spec, decomposition, monkeypatch):
    crit = {"f": QualityCriteria(spectrum_tolerance=0.01)}
    kw = dict(decomposition=decomposition, compressor=spec)
    expected = run_sweep({"f": field}, EBS, crit, **kw)
    _forbid_decode(monkeypatch)
    assert repr(run_sweep({"f": field}, EBS, crit, **kw)) == repr(expected)
    assert all(r.quality is not None for r in expected)


def test_confirmed_cells_never_decode(field, monkeypatch):
    crit = {"f": QualityCriteria(spectrum_tolerance=0.01)}
    kw = dict(decomposition=BlockDecomposition((32, 32, 32), (2, 2, 2)), probe_mode="model")
    expected = run_sweep({"f": field}, EBS, crit, confirm="boundary", **kw)
    # Some cells are confirmed (measured), some trusted.
    trusted = run_sweep({"f": field}, EBS, crit, **kw)
    confirmed = [r != t for r, t in zip(expected, trusted)]
    assert any(confirmed) and not all(confirmed)
    _forbid_decode(monkeypatch)
    assert repr(run_sweep({"f": field}, EBS, crit, confirm="boundary", **kw)) == repr(expected)
