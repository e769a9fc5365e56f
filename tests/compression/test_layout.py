"""Code-stream layout 2: the fold, the stored widths and their edges.

Residual ``r`` is stored as ``zigzag(r) + 1`` (``0`` marks an outlier),
each block at its value-minimal width — one byte while ``|r| <= 127``,
two up to the default radius — and rows wider than one byte as byte
planes.  The properties below drive residuals *through the whole
compressor* at exactly those edges: the input is built from a chosen
residual sequence with a power-of-two bound, so the quantizer recovers
the sequence exactly and the stored symbols are known in advance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fold, unfold

from repro.compression.api import CompressorSpec, resolve_compressor
from repro.compression.codecs import PLANES_BIT, get_codec
from repro.compression.quantizer import (
    encode_residuals_batch,
    pw_rel_to_log_abs,
    unfold_symbols_into,
)
from repro.compression.sz import LAYOUT, SZCompressor, decompress

RADIUS = 1 << 15
#: |r| at the last one-byte symbol, the first two-byte one, the last
#: residual that fits the radius and the first outliers.
EDGES = [0, 1, 126, 127, 128, 129, 32766, 32767, 32768, 40000]
CODECS = ["zlib", "huffman", "raw"]

residual_steps = st.lists(
    st.one_of(
        st.sampled_from(EDGES + [-e for e in EDGES]),
        st.integers(-40000, 40000),
    ),
    min_size=1,
    max_size=24,
)


def _field_from_residuals(steps: list[int], dtype, mode: str) -> tuple[np.ndarray, float, np.ndarray]:
    """A 1-D field whose Lorenzo residuals are ``steps`` interleaved with
    their negations (so the lattice stays within +-40000 and float32
    holds every value exactly), the bound that makes it so, and those
    residuals."""
    res = np.array([v for s in steps for v in (s, -s)], dtype=np.int64)
    lattice = np.cumsum(res)
    if mode == "abs":
        eb = 2.0**-4
        data = (lattice * (2.0 * eb)).astype(dtype)
    else:
        eb = 1e-4
        data = np.exp(lattice * (2.0 * pw_rel_to_log_abs(eb))).astype(dtype)
    return data, eb, res


def _assert_within_bound(mode: str, recon: np.ndarray, data: np.ndarray, eb: float) -> None:
    orig = data.astype(np.float64)
    if mode == "abs":
        assert np.max(np.abs(recon - orig)) <= eb * (1 + 1e-9)
    else:
        assert np.max(np.abs(recon / orig - 1.0)) <= eb * (1 + 1e-9)


def _expected_symbols(res: np.ndarray) -> np.ndarray:
    folded = np.where(res >= 0, 2 * res, -2 * res - 1) + 1
    return np.where(np.abs(res) < RADIUS, folded, 0)


def _fold(res: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fold kernel on one row: ``(symbols, positions, values)``."""
    symbols = np.array(res, dtype=np.int64).reshape(1, -1)
    _counts, pos, val, _maxes = encode_residuals_batch(symbols, radius)
    return symbols[0], pos, val


class TestFoldPrimitive:
    def test_symbol_map(self):
        res = np.array([0, -1, 1, -2, 2, 127, -127, -128, 128], dtype=np.int64)
        assert _fold(res, RADIUS)[0].tolist() == [
            1, 2, 3, 4, 5, 255, 254, 256, 257,
        ]

    def test_radius_edge(self):
        res = np.array([32767, -32767, 32768, -32768], dtype=np.int64)
        symbols, pos, val = _fold(res, RADIUS)
        assert symbols.tolist() == [65535, 65534, 0, 0]
        assert pos.tolist() == [2, 3]
        assert val.tolist() == [32768, -32768]

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGES + [-e for e in EDGES]),
                st.integers(-(2**63), 2**63 - 1),
            ),
            min_size=1,
            max_size=100,
        ),
        st.sampled_from([2, 3, 128, 129, RADIUS, 1 << 20]),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_over_the_full_int64_range(self, values, radius):
        res = np.array(values, dtype=np.int64)
        symbols, pos, val = _fold(res, radius)
        assert (symbols.tolist(), pos.tolist(), val.tolist()) == fold(values, radius)
        assert symbols.min() >= 0 and symbols.max() <= 2 * radius - 1
        fits = symbols != 0
        # every stored width unfolds as the value-by-value map does
        for dt in (np.uint8, np.uint16, np.uint32, np.uint64, np.int64):
            if int(symbols.max()) <= np.iinfo(dt).max:
                got = unfold_symbols_into(symbols.astype(dt), np.empty(res.size, np.int64))
                assert got.tolist() == [unfold(s) for s in symbols.tolist()]
                assert np.array_equal(got[fits], res[fits])
                got[pos] = val
                assert np.array_equal(got, res)


def _compressor(mode, codec, engine, radius=RADIUS):
    """Both quantization orders, each through the registry's one dispatch."""
    return resolve_compressor(
        CompressorSpec.sz(mode=mode, codec=codec, radius=radius, engine=engine)
    )


@pytest.mark.parametrize("engine", ["dual", "classic"])
@pytest.mark.parametrize("mode", ["abs", "pw_rel"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("codec", CODECS)
class TestThroughTheCompressor:
    @given(steps=residual_steps)
    @settings(max_examples=12, deadline=None)
    def test_edges_round_trip(self, codec, dtype, mode, engine, steps):
        data, eb, res = _field_from_residuals(steps, dtype, mode)
        comp = _compressor(mode, codec, engine)
        block = comp.compress(data, eb)
        assert block.layout == LAYOUT
        assert block.payloads == comp.compress_many([data], [eb])[0].payloads
        symbols = get_codec(codec).decode(block.payloads["codes"], data.size)
        expected = _expected_symbols(res)
        assert np.array_equal(symbols, expected)
        assert block.n_outliers == int((expected == 0).sum())
        if codec != "huffman":
            tag = block.payloads["codes"][0]
            width = 1 if expected.max() <= 0xFF else 2
            assert tag == (width | PLANES_BIT if width > 1 else width)
        recon = decompress(block)
        _assert_within_bound(mode, recon, data, eb)
        if mode == "abs":
            assert np.array_equal(recon, data.astype(np.float64))  # exact lattice

    def test_all_outlier_and_constant_blocks(self, codec, dtype, mode, engine):
        # radius 2: only r in {-1, 0, 1} fits, so +-2 everywhere is all outliers
        data, eb, res = _field_from_residuals([2] * 6, dtype, mode)
        comp = _compressor(mode, codec, engine, radius=2)
        block = comp.compress(data, eb)
        assert block.n_outliers == data.size
        symbols = get_codec(codec).decode(block.payloads["codes"], data.size)
        assert not symbols.any()
        _assert_within_bound(mode, decompress(block), data, eb)

        flat = np.full((3, 4, 5), 7.0 if mode == "pw_rel" else 0.0, dtype=dtype)
        block = _compressor(mode, codec, engine).compress(flat, eb)
        symbols = get_codec(codec).decode(block.payloads["codes"], flat.size)
        # a constant block is one first value and then residual 0 (symbol 1)
        assert block.n_outliers == 0 and (symbols[1:] == 1).all()
        _assert_within_bound(mode, decompress(block), flat, eb)


class TestMixedWidthGroups:
    def test_runs_of_equal_width_pack_like_single_blocks(self):
        """A shape group whose blocks need different widths — the plane
        buffer is cut into runs; bytes must not depend on the neighbours."""
        rng = np.random.default_rng(21)
        scales = [0.5, 0.5, 40.0, 0.5, 40.0, 40.0, 0.5]  # uint8 / uint16 symbols
        views = [np.cumsum(rng.normal(0, s, (6, 6, 6)), axis=0) for s in scales]
        for codec in CODECS:
            comp = SZCompressor(codec=codec)
            batched = comp.compress_many(views, [0.01] * len(views))
            singles = [comp.compress(v, 0.01) for v in views]
            assert [b.payloads for b in batched] == [s.payloads for s in singles]
            if codec != "huffman":
                tags = [b.payloads["codes"][0] for b in batched]
                assert set(tags) == {1, 2 | PLANES_BIT}
            for blk, v in zip(batched, views):
                assert np.max(np.abs(decompress(blk) - v)) <= 0.01 * (1 + 1e-9)
