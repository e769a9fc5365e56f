"""The decoder against a reference spelled out value by value
(``conftest.reference_decode``).

:func:`repro.compression.sz.decompress` takes shortcuts — a lookup table
for one-byte symbols, planes shifted together, prefix sums in place, a
fused dequantize.  None of them may change a bit: for every stored width,
1-3-D shape, outlier load, source dtype and mode the reconstruction must
equal the textbook one (unfold each symbol -> scatter the outliers ->
``np.cumsum`` per axis -> ``q * 2eb``).

Also here: the entropy stage's DEFLATE strategy is invisible to readers
(either side of it is a plain zlib stream), and the thread fan-out is
gated on the input without changing a byte: the chunker's, encode and
decode alike, on block size; the ladder probe's on the elements probed.
"""

from __future__ import annotations

import threading
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import sz
from repro.compression.api import decompress_many
from repro.compression.codecs import PLANES_BIT, ZlibCodec, pack_symbols
from repro.compression.sz import (
    FANOUT_MIN_ELEMENTS,
    PROBE_FANOUT_MIN_ELEMENTS,
    CompressedBlock,
    SZCompressor,
    decompress,
)
from repro.util import fanout
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
    def test_bit_identical(self, shape, k, dtype, mode, outliers, seed, reference_decode):
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

        from repro.compression.codecs import ZLIB_LEVEL

        assert inspect.signature(ZlibCodec).parameters == {}
        assert ZlibCodec().level == ZLIB_LEVEL == 6


class TestFanOutGate:
    @pytest.fixture()
    def seen(self, monkeypatch):
        """``maps``: the item count of every fan-out; ``chunks``: the
        chunks (block indices) or bounds each one was handed; ``threads``: the
        thread of every compress, probe or decode chunk pass."""
        seen = SimpleNamespace(maps=[], chunks=[], threads=set())

        def counted(fn, items):
            seen.maps.append(len(items))
            seen.chunks.append(
                [[int(i) for i in c] if isinstance(c, np.ndarray) else c for c in items]
            )
            return thread_map(fn, items)

        def recorded(owner, name):
            real = getattr(owner, name)

            def chunk_pass(*args, **kwargs):
                seen.threads.add(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, chunk_pass)

        # the one fan-out site: the chunker
        monkeypatch.setattr(sz, "thread_map", counted)
        recorded(SZCompressor, "_compress_batch")
        recorded(SZCompressor, "_ladder_chunk")
        recorded(SZCompressor, "_encode_mapped")
        recorded(sz, "_decompress_chunk")
        return seen

    @staticmethod
    def _views(side: int, count: int):
        rng = np.random.default_rng(side)
        views = [np.cumsum(rng.normal(0, 1, (side,) * 3), axis=2) for _ in range(count)]
        return views, [0.01 * (i + 1) for i in range(count)]

    def test_small_blocks_stay_in_the_calling_thread(self, seen, monkeypatch):
        views, ebs = self._views(8, 6)
        assert views[0].size < FANOUT_MIN_ELEMENTS
        assert sum(v.size for v in views) < PROBE_FANOUT_MIN_ELEMENTS
        comp = SZCompressor()
        monkeypatch.setattr(sz, "usable_cpus", lambda: 4)
        fanned = comp.compress_many(views, ebs)
        ladder = comp.estimate_ladder(views, ebs)
        recons = decompress_many(fanned)
        assert not seen.maps
        assert seen.threads == {threading.get_ident()}
        monkeypatch.setattr(sz, "usable_cpus", lambda: 1)
        assert fanned == comp.compress_many(views, ebs)
        assert ladder == comp.estimate_ladder(views, ebs)
        for a, b in zip(recons, decompress_many(fanned)):
            assert np.array_equal(a, b)

    def test_large_blocks_still_fan_out(self, seen, monkeypatch):
        views, ebs = self._views(32, 3)
        assert views[0].size >= FANOUT_MIN_ELEMENTS
        comp = SZCompressor()
        monkeypatch.setattr(sz, "usable_cpus", lambda: 4)
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 4)
        fanned = comp.compress_many(views, ebs)
        assert seen.maps == [3]  # one chunk per CPU: three of one block
        assert seen.chunks == [[[0], [1], [2]]]
        recons = decompress_many(fanned)
        assert seen.maps == [3, 3]
        monkeypatch.setattr(sz, "usable_cpus", lambda: 2)
        assert fanned == comp.compress_many(views, ebs)
        assert seen.maps == [3, 3, 2]
        monkeypatch.setattr(sz, "usable_cpus", lambda: 1)
        assert fanned == comp.compress_many(views, ebs)
        for a, b in zip(recons, decompress_many(fanned)):
            assert np.array_equal(a, b)
        assert seen.maps == [3, 3, 2]

    @pytest.mark.parametrize("side, count", [(32, 4), (8, 256)])
    def test_large_probes_fan_out_over_chunks_and_bounds(self, seen, monkeypatch, side, count):
        """The probe's gate is the elements probed, whatever the block
        size: 4 x 32^3 or 256 x 8^3 blocks are one chunk, whose three
        bounds fan out."""
        views, ebs = self._views(side, count)
        assert sum(v.size for v in views) >= PROBE_FANOUT_MIN_ELEMENTS
        comp = SZCompressor()
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 4)
        ladder = comp.estimate_ladder(views, ebs[:3])
        assert seen.maps == [1, 3]
        assert seen.chunks == [[list(range(count))], ebs[:3]]
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
        assert ladder == comp.estimate_ladder(views, ebs[:3])
