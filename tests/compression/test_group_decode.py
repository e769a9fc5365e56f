"""The group decoder against the per-block one.

:func:`repro.compression.api.decompress_many` decodes small dual-engine
layout-2 SZ blocks through :func:`repro.compression.sz.decompress_group`
— one unfold per stored width, one outlier scatter, one prefix-sum pass
and one dequantize per mode over a whole stack.  None of that may change
a bit or an error: every array equals :func:`decompress_any` of its
block, and every hostile payload the single-block decoder refuses is
refused from inside a group with the same :class:`PayloadError`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import api, sz
from repro.compression.api import FANOUT_MIN_ELEMENTS, decompress_any, decompress_many
from repro.compression.codecs import PLANES_BIT
from repro.compression.lorenzo import lorenzo_inverse, lorenzo_inverse_batch_inplace
from repro.compression.regression import AdaptiveSZCompressor
from repro.compression.sz import (
    GROUP_LATTICE_BYTES,
    SZCompressor,
    decompress,
    decompress_group,
)
from repro.compression.workspace import Workspace
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.parallel.backends import SnapshotResult
from repro.parallel.decomposition import BlockDecomposition
from repro.util.errors import PayloadError

#: width k -> (radius, bound as a fraction of the data's spread)
WIDTHS = {1: (1 << 15, 0.05), 2: (1 << 15, 1e-4), 4: (1 << 20, 1e-7)}
#: radii small enough that the same bounds leave outliers behind
TINY_RADIUS = {1: 2, 2: 150, 4: 70_000}
SHAPES = [(6, 5, 7), (8, 8, 8), (9, 13), (40,), (1, 4, 3)]


def _field(shape, seed: int) -> np.ndarray:
    data = np.random.default_rng(seed).normal(0.0, 1.0, shape)
    for axis in range(len(shape)):
        data = np.cumsum(data, axis=axis)
    return data


def _sz_block(shape, k, dtype, mode, outliers, codec, seed):
    radius, frac = WIDTHS[k]
    if dtype == np.float32 and k == 4:
        frac = 1e-6  # keep the lattice above float32's own rounding
    data = _field(shape, seed)
    if mode == "pw_rel":
        data = np.exp(data / (1.0 + np.abs(data).max()) * 3.0)
    eb = frac * (1.0 if mode == "pw_rel" else float(np.ptp(data)) + 1.0)
    if outliers:
        radius = TINY_RADIUS[k]
    comp = SZCompressor(mode=mode, codec=codec, radius=radius)
    return comp.compress(data.astype(dtype), eb)


def _assert_same_arrays(got, blocks):
    assert len(got) == len(blocks)
    for recon, block in zip(got, blocks):
        want = decompress_any(block)
        assert recon.dtype == want.dtype and recon.shape == want.shape
        assert np.array_equal(recon, want)


block_specs = st.tuples(
    st.sampled_from(sorted(WIDTHS)),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["abs", "pw_rel"]),
    st.booleans(),
    st.sampled_from(["zlib", "raw", "huffman"]),
    st.integers(0, 2**16),
)


class TestGroupMatchesPerBlock:
    @given(
        shape=st.sampled_from(SHAPES),
        specs=st.lists(block_specs, min_size=1, max_size=7),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_group_bit_identical(self, shape, specs):
        """Widths 1/2/4, outlier loads, modes, source dtypes and codecs
        mixed inside one same-shape group."""
        blocks = [_sz_block(shape, *spec) for spec in specs]
        _assert_same_arrays(decompress_group(blocks), blocks)
        _assert_same_arrays(decompress_many(blocks), blocks)

    @given(
        specs=st.lists(
            st.tuples(st.sampled_from(SHAPES), block_specs), min_size=1, max_size=9
        ),
        threads=st.sampled_from([None, 1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_shapes_bit_identical(self, specs, threads):
        blocks = [_sz_block(shape, *spec) for shape, spec in specs]
        _assert_same_arrays(decompress_many(blocks, threads), blocks)

    def test_the_generator_reaches_every_width_and_outliers(self):
        for k in sorted(WIDTHS):
            for outliers in (False, True):
                block = _sz_block((8, 8, 8), k, np.float64, "abs", outliers, "zlib", 3)
                assert block.payloads["codes"][0] & ~PLANES_BIT <= k
                assert (block.n_outliers > 0) == outliers
            plain = _sz_block((8, 8, 8), k, np.float64, "abs", False, "zlib", 3)
            assert plain.payloads["codes"][0] & ~PLANES_BIT == k

    def test_mixed_families_in_one_list(self, v1_blocks, v2_blocks):
        """Classic, layout-1, ``sz_adaptive`` and ``zfp_like`` blocks keep
        their own decoders; the layout-2 blocks around them are grouped."""
        rng = np.random.default_rng(11)
        cube = np.cumsum(rng.normal(0, 1, (8, 8, 8)), axis=0)
        blocks = [
            _sz_block((8, 8, 8), 2, np.float32, "abs", True, "zlib", 5),
            ZFPLikeCompressor(rate=8).compress(cube),
            *(block for block, _ in v1_blocks.values()),
            _sz_block((8, 8, 8), 1, np.float64, "pw_rel", False, "huffman", 6),
            AdaptiveSZCompressor(block=4).compress(cube.astype(np.float32), 0.01),
            *(block for block, _ in v2_blocks.values()),
            api.resolve_compressor("sz:engine=classic").compress(cube, 0.05),
            _sz_block((8, 8, 8), 4, np.float64, "abs", False, "raw", 7),
        ]
        assert sum(map(sz.groupable, blocks)) >= 3 + len(v2_blocks)
        assert not all(map(sz.groupable, blocks))
        _assert_same_arrays(decompress_many(blocks), blocks)

    def test_views_of_one_array_per_chunk(self):
        blocks = [_sz_block((8, 8, 8), 1, np.float64, "abs", False, "zlib", s) for s in range(5)]
        got = decompress_group(blocks)
        base = got[0].base
        assert base is not None and base.shape == (5, 8, 8, 8)
        assert all(recon.base is base and recon.flags.c_contiguous for recon in got)


class TestChunksAndArena:
    def test_long_groups_decode_in_bounded_chunks(self, monkeypatch):
        shape = (16, 16, 16)
        per_chunk = GROUP_LATTICE_BYTES // (8 * 16**3)
        assert per_chunk == 64  # one 64^3 field of 16^3 partitions
        views = [_field(shape, s) for s in range(per_chunk + 5)]
        blocks = SZCompressor().compress_many(views, [0.01] * len(views))
        lattices = []
        real = Workspace.request

        def recording(ws, name, shape, dtype):
            view = real(ws, name, shape, dtype)
            if name == "group_lattice_i64":
                lattices.append(view.nbytes)
            return view

        monkeypatch.setattr(Workspace, "request", recording)
        got = decompress_group(blocks)
        _assert_same_arrays(got, blocks)
        assert got[0].base is not got[-1].base
        assert lattices == [GROUP_LATTICE_BYTES, 5 * 8 * 16**3]

    def test_refuses_what_it_cannot_group(self, v1_blocks):
        a = _sz_block((8, 8, 8), 1, np.float64, "abs", False, "zlib", 1)
        b = _sz_block((6, 5, 7), 1, np.float64, "abs", False, "zlib", 1)
        with pytest.raises(ValueError, match="same-shape"):
            decompress_group([a, b])
        legacy = v1_blocks["zlib f32"][0]
        with pytest.raises(ValueError, match="layout-2"):
            decompress_group([legacy])
        assert decompress_group([]) == []


class TestLargeBlocksKeepTheirPath:
    @pytest.fixture()
    def group_calls(self, monkeypatch):
        calls = []
        real = sz.decompress_group

        def counted(blocks):
            calls.append(len(blocks))
            return real(blocks)

        monkeypatch.setattr(sz, "decompress_group", counted)
        return calls

    def test_small_blocks_are_grouped(self, group_calls):
        blocks = SZCompressor().compress_many(
            [_field((16, 16, 16), s) for s in range(3)], [0.01, 0.02, 0.03]
        )
        for threads in (None, 1, 4):
            _assert_same_arrays(decompress_many(blocks, threads), blocks)
        assert group_calls == [3, 3, 3]

    def test_large_blocks_decode_one_by_one(self, group_calls):
        side = 32
        assert side**3 >= FANOUT_MIN_ELEMENTS
        blocks = SZCompressor().compress_many(
            [_field((side,) * 3, s) for s in range(2)], [0.01, 0.02]
        )
        for threads in (None, 1, 4):
            _assert_same_arrays(decompress_many(blocks, threads), blocks)
        assert group_calls == []


def test_reconstruct_float32_matches_per_block_path():
    dec = BlockDecomposition((24, 24, 24), blocks=3)
    data = _field((24, 24, 24), 9).astype(np.float32)
    views = dec.partition_views(data)
    ebs = np.linspace(0.01, 0.05, len(views))
    result = SnapshotResult(
        ebs=ebs, blocks=SZCompressor().compress_many(views, ebs), features=[], optimization=None
    )
    for dtype in (np.float32, np.float64):
        got = result.reconstruct(dec, dtype=dtype)
        want = dec.assemble([decompress_any(b) for b in result.blocks], dtype=dtype)
        assert got.dtype == dtype and np.array_equal(got, want)


class TestHostilePayloadsInsideAGroup:
    """Each corruption ``test_payload_errors.py`` feeds the single-block
    decoder, hidden in the middle of an otherwise healthy group."""

    @staticmethod
    def _group(codec="zlib", radius=16):
        rng = np.random.default_rng(31)
        views = [np.cumsum(rng.normal(0, 30, (8, 8, 8)), axis=1) for _ in range(4)]
        blocks = SZCompressor(codec=codec, radius=radius).compress_many(views, [0.05] * 4)
        assert all(b.n_outliers > 0 for b in blocks)
        return blocks

    @staticmethod
    def _same_error(blocks, bad_index):
        with pytest.raises(PayloadError) as single:
            decompress(blocks[bad_index])
        with pytest.raises(PayloadError) as grouped:
            decompress_many(blocks)
        assert str(grouped.value) == str(single.value)
        assert type(grouped.value) is type(single.value)

    @pytest.mark.parametrize("channel", ["codes", "outlier_pos", "outlier_val"])
    def test_missing_channel(self, channel):
        blocks = self._group()
        del blocks[2].payloads[channel]
        self._same_error(blocks, 2)

    @pytest.mark.parametrize("codec", ["zlib", "raw", "huffman"])
    def test_truncated_codes(self, codec):
        blocks = self._group(codec)
        for cut in (1, 5):
            bad = self._group(codec)
            bad[1].payloads["codes"] = blocks[1].payloads["codes"][:-cut]
            self._same_error(bad, 1)

    @pytest.mark.parametrize("codec", ["zlib", "raw"])
    def test_unknown_width_tag(self, codec):
        blocks = self._group(codec)
        codes = blocks[3].payloads["codes"]
        for tag in (3, 0x81, 2, 0x7F):
            blocks[3].payloads["codes"] = bytes([tag]) + codes[1:]
            self._same_error(blocks, 3)

    def test_outlier_position_out_of_range(self):
        donor = self._group()[0]  # 8x8x8: positions up to 511
        rng = np.random.default_rng(31)
        views = [np.cumsum(rng.normal(0, 30, (8, 8, 4)), axis=1) for _ in range(4)]
        blocks = SZCompressor(radius=16).compress_many(views, [0.05] * 4)
        blocks[2].payloads["outlier_pos"] = donor.payloads["outlier_pos"]
        blocks[2].payloads["outlier_val"] = donor.payloads["outlier_val"]
        blocks[2].n_outliers = donor.n_outliers
        with pytest.raises(PayloadError, match="outside"):
            decompress(blocks[2])
        self._same_error(blocks, 2)

    def test_unknown_mode_tag(self):
        blocks = self._group()
        blocks[1] = dataclasses.replace(blocks[1], mode="rel")
        self._same_error(blocks, 1)

    def test_outlier_count_mismatch(self):
        blocks = self._group()
        blocks[0].n_outliers -= 1
        self._same_error(blocks, 0)


@pytest.mark.parametrize(
    "shape", [(5, 16, 16, 16), (3, 9, 13), (4, 40), (2, 1, 4, 3), (3, 300, 2), (1, 7, 1, 1)]
)
def test_batched_prefix_sums_equal_per_block(shape):
    rng = np.random.default_rng(len(shape))
    stack = rng.integers(-(2**62), 2**62, shape, dtype=np.int64)  # sums wrap
    want = np.stack([lorenzo_inverse(row.copy()) for row in stack])
    assert np.array_equal(lorenzo_inverse_batch_inplace(stack), want)
