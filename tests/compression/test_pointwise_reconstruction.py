"""Pointwise reconstruction: what the dual-quantization compressors write
is a closed form of each source value alone.

Quantizing before prediction puts every cell on its lattice point, so a
reconstruction is ``2·eb·rint(x / (2·eb))`` in ``abs`` mode and
``exp(s·rint(ln x / s))`` with ``s = 2·pw_rel_to_log_abs(eb)`` in
``pw_rel`` mode — whatever the entropy stage, the source dtype or the
predictor (``sz_adaptive``'s regression tiles quantize the same way).
CPU-SZ's classic order predicts from reconstructed neighbours first,
so its values are not of that form: the property tells the engines
apart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.api import resolve_compressor
from repro.compression.quantizer import pw_rel_to_log_abs
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator

FIELDS = ("baryon_density", "temperature", "velocity_x")
POSITIVE = ("baryon_density", "temperature")


@pytest.fixture(scope="module")
def fields() -> dict[str, np.ndarray]:
    snap = NyxSimulator(shape=(32, 32, 32), box_size=32.0, seed=42).snapshot(z=0.5)
    return {name: snap[name] for name in FIELDS}


def _views(field: np.ndarray, dtype) -> list[np.ndarray]:
    """The field's 16^3 partitions, as views of one array of ``dtype``."""
    data = field.astype(dtype)
    return BlockDecomposition(data.shape, blocks=2).partition_views(data)


def _written(spec: str, views: list[np.ndarray], ebs: list[float]) -> list[np.ndarray]:
    out = [np.empty(v.shape) for v in views]
    resolve_compressor(spec).compress_many(views, ebs, out=out)
    return out


def _abs_ebs(views: list[np.ndarray]) -> list[float]:
    """A spread of absolute bounds, per view."""
    return [float(np.ptp(v.astype(np.float64))) * 1e-3 * (1 + i % 3) for i, v in enumerate(views)]


def _abs_lattice(x: np.ndarray, eb: float) -> np.ndarray:
    return 2 * eb * np.rint(x.astype(np.float64) / (2 * eb))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize(
    "spec", ["sz", "sz:codec=huffman", "sz:codec=raw", "sz_adaptive"]
)
@pytest.mark.parametrize("name", FIELDS)
def test_abs_reconstruction_is_the_lattice_point(fields, name, spec, dtype):
    views = _views(fields[name], dtype)
    ebs = _abs_ebs(views)
    for got, view, eb in zip(_written(spec, views, ebs), views, ebs):
        assert np.array_equal(got, _abs_lattice(view, eb))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", POSITIVE)
def test_pw_rel_reconstruction_is_the_log_lattice_point(fields, name, dtype):
    views = _views(fields[name], dtype)
    ebs = [1e-3 * (1 + 3 * (i % 4)) for i in range(len(views))]
    for got, view, eb in zip(_written("sz:mode=pw_rel", views, ebs), views, ebs):
        s = 2 * pw_rel_to_log_abs(eb)
        assert np.array_equal(got, np.exp(s * np.rint(np.log(view.astype(np.float64)) / s)))


@pytest.mark.parametrize("name", FIELDS)
def test_the_classic_engine_is_not_pointwise(fields, name):
    views = _views(fields[name], np.float64)
    ebs = _abs_ebs(views)
    written = _written("sz:engine=classic", views, ebs)
    assert any(
        not np.array_equal(got, _abs_lattice(view, eb))
        for got, view, eb in zip(written, views, ebs)
    )
