"""The decoder against a reference spelled out value by value.

:func:`repro.compression.sz.decompress` takes shortcuts — a lookup table
for one-byte symbols, planes shifted together, prefix sums in place, a
fused dequantize.  None of them may change a bit: for every stored width,
1-3-D shape, outlier load, source dtype and mode the reconstruction must
equal the textbook one (unfold each symbol -> scatter the outliers ->
``np.cumsum`` per axis -> ``q * 2eb``).

Also here: the entropy stage's DEFLATE strategy is invisible to readers
(either side of it is a plain zlib stream), and the thread fan-outs of
the chunked front and the decoder are gated on block size without
changing a byte.
"""

from __future__ import annotations

import threading
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import api, sz
from repro.compression.api import FANOUT_MIN_ELEMENTS, decompress_many
from repro.compression.codecs import PLANES_BIT, ZlibCodec, pack_symbols
from repro.compression.sz import CompressedBlock, SZCompressor, decompress
from repro.compression.workspace import thread_workspace
from repro.util.fanout import thread_map

SHAPES = [
    (1,), (17,), (300,),
    (5, 9), (1, 7), (7, 1), (2, 300),
    (4, 6, 5), (3, 1, 4), (1, 1, 1), (1, 5, 1), (3, 16, 17),
]
#: width k -> (radius, bound as a fraction of the data's spread)
WIDTHS = {1: (1 << 15, 0.05), 2: (1 << 15, 1e-4), 4: (1 << 20, 1e-7)}
#: radii small enough that the same bounds leave outliers behind
TINY_RADIUS = {1: 2, 2: 150, 4: 70_000}


def _unfold(symbol: int) -> int:
    """The symbol map of ``quantizer``'s docstring, one value at a time."""
    if symbol == 0:
        return 0  # outlier slot, overwritten below
    zz = symbol - 1
    return zz >> 1 if zz % 2 == 0 else -(zz >> 1) - 1


def _inflate(blob: bytes) -> bytes:
    return zlib.decompress(blob) if blob else b""


def reference_decode(block: CompressedBlock) -> np.ndarray:
    n = block.n_elements
    codes = block.payloads["codes"]
    k = codes[0] & ~PLANES_BIT
    planes = np.frombuffer(zlib.decompress(codes[1:]), dtype=np.uint8).reshape(k, n)
    symbols = [sum(int(planes[p, i]) << (8 * p) for p in range(k)) for i in range(n)]
    residuals = [_unfold(s) for s in symbols]
    if block.n_outliers:
        pos_blob = block.payloads["outlier_pos"]
        positions = np.frombuffer(_inflate(pos_blob[1:]), dtype=f"<u{pos_blob[0]}")
        values = np.frombuffer(_inflate(block.payloads["outlier_val"]), dtype=np.uint64)
        for pos, zz in zip(positions.tolist(), values.tolist()):
            assert symbols[pos] == 0
            residuals[pos] = zz >> 1 if zz % 2 == 0 else -(zz >> 1) - 1
    q = np.array(residuals, dtype=np.int64).reshape(block.shape)
    for axis in range(q.ndim):
        q = np.cumsum(q, axis=axis)
    abs_eb = block.eb if block.mode == "abs" else float(np.log1p(block.eb))
    work = q.astype(np.float64) * (2.0 * abs_eb)
    return work if block.mode == "abs" else np.exp(work)


def _field(shape, seed: int) -> np.ndarray:
    data = np.random.default_rng(seed).normal(0.0, 1.0, shape)
    for axis in range(len(shape)):
        data = np.cumsum(data, axis=axis)
    return data


class TestDecodeMatchesTheReference:
    @staticmethod
    def _block(shape, k, dtype, mode, outliers, seed) -> CompressedBlock:
        radius, frac = WIDTHS[k]
        if dtype == np.float32 and k == 4:
            frac = 1e-6  # keep the lattice above float32's own rounding
        data = _field(shape, seed)
        if mode == "pw_rel":
            data = np.exp(data / (1.0 + np.abs(data).max()) * 3.0)
        eb = frac * (1.0 if mode == "pw_rel" else float(np.ptp(data)) + 1.0)
        if outliers == "tiny radius":
            radius = TINY_RADIUS[k]
        elif outliers == "spike":
            # one residual far outside any radius
            data.reshape(-1)[seed % data.size] += 1e9
        return SZCompressor(mode=mode, radius=radius).compress(data.astype(dtype), eb)

    @given(
        shape=st.sampled_from(SHAPES),
        k=st.sampled_from(sorted(WIDTHS)),
        dtype=st.sampled_from([np.float32, np.float64]),
        mode=st.sampled_from(["abs", "pw_rel"]),
        outliers=st.sampled_from(["none", "tiny radius", "spike"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, shape, k, dtype, mode, outliers, seed):
        block = self._block(shape, k, dtype, mode, outliers, seed)
        got = decompress(block)
        assert got.dtype == np.float64 and got.shape == tuple(shape)
        assert np.array_equal(got, reference_decode(block))

    @pytest.mark.parametrize("k", sorted(WIDTHS))
    def test_the_generator_reaches_every_width_and_outlier_load(self, k):
        block = self._block((3, 16, 17), k, np.float64, "abs", "none", 3)
        assert block.payloads["codes"][0] & ~PLANES_BIT == k and block.n_outliers == 0
        for outliers in ("tiny radius", "spike"):
            block = self._block((3, 16, 17), k, np.float64, "abs", outliers, 3)
            assert block.payloads["codes"][0] & ~PLANES_BIT <= k and block.n_outliers > 0


class TestStrategyIsInvisibleToReaders:
    def test_default_strategy_streams_decode(self):
        """A payload built by hand the way the parent commit built it."""
        rng = np.random.default_rng(5)
        for high in (200, 60_000, 1 << 20):
            symbols = rng.integers(0, high, 700)
            packed = pack_symbols(symbols)
            k = packed.shape[0]
            blob = bytes([k | PLANES_BIT if k > 1 else k]) + zlib.compress(packed, 6)
            assert np.array_equal(ZlibCodec().decode(blob, symbols.size), symbols)

    def test_encoder_output_is_a_plain_zlib_stream(self):
        rng = np.random.default_rng(6)
        for high in (200, 60_000, 1 << 20):
            packed = pack_symbols(rng.integers(0, high, 700))
            blob = ZlibCodec().encode_row(packed)
            assert zlib.decompress(blob[1:]) == packed.tobytes()

    def test_the_codec_has_no_strategy_knob(self):
        import inspect

        params = inspect.signature(ZlibCodec.__init__).parameters
        assert list(params) == ["self", "level"] and params["level"].default == 6
        assert ZlibCodec().level == 6


class TestFanOutGate:
    @pytest.fixture()
    def seen(self, monkeypatch):
        """``maps``: ``(items, workers)`` of every pool fan-out;
        ``threads``: the thread of every arena fetch (one per compress /
        probe chunk and per group decode)."""
        seen = SimpleNamespace(maps=[], threads=set())

        def counted(fn, items, workers=None):
            seen.maps.append((len(items), workers))
            return thread_map(fn, items, workers)

        def fetched():
            seen.threads.add(threading.get_ident())
            return thread_workspace()

        # the two fan-out sites: the chunked front and decompress_many
        monkeypatch.setattr(sz, "thread_map", counted)
        monkeypatch.setattr(api, "thread_map", counted)
        monkeypatch.setattr(sz, "thread_workspace", fetched)
        return seen

    @staticmethod
    def _views(side: int, count: int):
        rng = np.random.default_rng(side)
        views = [np.cumsum(rng.normal(0, 1, (side,) * 3), axis=2) for _ in range(count)]
        return views, [0.01 * (i + 1) for i in range(count)]

    def test_small_blocks_stay_in_the_calling_thread(self, seen):
        views, ebs = self._views(8, 6)
        assert views[0].size < FANOUT_MIN_ELEMENTS
        comp = SZCompressor()
        fanned = comp.compress_many(views, ebs, threads=4)
        comp.estimate_many(views, ebs)
        assert fanned == comp.compress_many(views, ebs, threads=1)
        recons = decompress_many(fanned, 4)
        assert not seen.maps
        assert seen.threads == {threading.get_ident()}
        for a, b in zip(recons, decompress_many(fanned, 1)):
            assert np.array_equal(a, b)

    def test_large_blocks_still_fan_out(self, seen):
        views, ebs = self._views(32, 3)
        assert views[0].size >= FANOUT_MIN_ELEMENTS
        comp = SZCompressor()
        fanned = comp.compress_many(views, ebs, threads=4)
        assert seen.maps == [(3, 4)]  # one chunk per thread: three of one block
        assert threading.get_ident() not in seen.threads
        assert fanned == comp.compress_many(views, ebs, threads=1)
        assert fanned == comp.compress_many(views, ebs, threads=2)
        assert seen.maps == [(3, 4), (2, 2)]
        recons = decompress_many(fanned, 4)
        assert len(seen.maps) == 3
        for a, b in zip(recons, decompress_many(fanned, 1)):
            assert np.array_equal(a, b)
        assert len(seen.maps) == 3
