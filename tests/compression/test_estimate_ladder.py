"""``estimate_ladder`` probes a set of views at a ladder of bounds, mapping
each chunk once: it must equal one ``estimate`` (the ladder of one view
at one bound) per view and bound, estimate for estimate, whatever the
grouping, chunking and thread count, and raise what that loop raises."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.compression import sz
from repro.compression.sz import SZCompressor
from repro.util import fanout

BOUNDS = {"abs": [2e-3, 1e-2, 5e-2, 0.3], "pw_rel": [1e-3, 1e-2, 0.1]}


def _cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)


def _positive(rng, shape, dtype) -> np.ndarray:
    walk = np.cumsum(rng.normal(0, 0.05, int(np.prod(shape)))).reshape(shape)
    return np.exp(walk - walk.mean()).astype(dtype)


def _views(dtype) -> list[np.ndarray]:
    """1-D, 2-D, odd 3-D and strided views, several shapes in one call,
    and a group of 32^3 blocks long enough to make two chunks."""
    rng = np.random.default_rng(17)
    field = _positive(rng, (64, 64, 96), dtype)
    blocks = [field[i : i + 32, j : j + 32, k : k + 32]
              for i in (0, 32) for j in (0, 32) for k in (0, 32, 64)][:9]
    return [
        _positive(rng, (101,), dtype),
        field[3, :17, :23],
        _positive(rng, (9, 10, 11), dtype),
        *blocks[:5],
        _positive(rng, (1, 7, 3), dtype),
        *blocks[5:],
        field[5:14, 1:11, 2:13],
    ]


def _loop(comp: SZCompressor, views, bounds):
    return [[comp.estimate(view, eb) for view in views] for eb in bounds]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["abs", "pw_rel"])
def test_the_ladder_is_one_estimate_per_view_and_bound(mode, dtype, codec, cpus, monkeypatch):
    comp = SZCompressor(mode=mode, codec=codec)
    views = _views(dtype)
    _cpus(monkeypatch, 1)
    expected = _loop(comp, views, BOUNDS[mode])
    _cpus(monkeypatch, cpus)
    assert comp.estimate_ladder(views, BOUNDS[mode]) == expected


@pytest.mark.parametrize("shape", [(257,), (13, 31), (5, 6, 7), (40, 40, 40)])
def test_one_view_at_one_bound(shape):
    """Checked against the codec: the encoder's outlier count and the
    MSE of what the decoder returns."""
    view = _positive(np.random.default_rng(2), shape, np.float64)
    comp = SZCompressor()
    ((est,),) = comp.estimate_ladder([view], [0.01])
    block = comp.compress(view, 0.01)
    mse = float(np.mean((comp.decompress(block) - view) ** 2))
    assert est.n_elements == view.size and est.eb == 0.01
    assert est.n_outliers == block.n_outliers
    assert est.predicted_mse == pytest.approx(mse, rel=1e-12, abs=0.0)


def test_an_empty_ladder_or_view_list():
    comp = SZCompressor()
    assert comp.estimate_ladder([np.ones(8)], []) == []
    assert comp.estimate_ladder([], [0.1, 0.2]) == [[], []]


def test_one_probe_span_maps_each_chunk_once_and_divides_per_bound():
    views = _views(np.float32)[3:8]  # five 32^3 blocks: one chunk
    with telemetry.armed() as tracer:
        SZCompressor().estimate_ladder(views, BOUNDS["abs"])
    spans = tracer.finished
    (probe,) = [s for s in spans if s.name == "rq.probe"]
    maps = [s for s in spans if s.name == "sz.map"]
    assert len(maps) == 1 + len(BOUNDS["abs"])
    assert all(s.parent_id == probe.span_id for s in maps)


def _raises_alike(comp, views, bounds) -> str:
    with pytest.raises(ValueError) as loop_error:
        _loop(comp, views, bounds)
    with pytest.raises(ValueError) as ladder_error:
        comp.estimate_ladder(views, bounds)
    assert str(ladder_error.value) == str(loop_error.value)
    return str(loop_error.value)


class TestErrors:
    @pytest.mark.parametrize("mode", ["abs", "pw_rel"])
    def test_nan_input(self, mode):
        views = _views(np.float64)
        views[4] = views[4].copy()
        views[4][1, 2, 3] = np.nan
        assert "non-finite" in _raises_alike(SZCompressor(mode=mode), views, [0.01, 0.1])

    def test_non_positive_input_in_pw_rel(self):
        views = _views(np.float32)
        views[2] = -views[2]
        assert "strictly positive" in _raises_alike(
            SZCompressor(mode="pw_rel"), views, [0.01, 0.1]
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_a_bad_bound(self, bad):
        assert "positive and finite" in _raises_alike(
            SZCompressor(), _views(np.float64), [0.01, bad, 0.1]
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lattice_overflow(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        assert "error bound too small" in _raises_alike(
            SZCompressor(), _views(np.float64), [0.01, 1e-300, 0.1]
        )
