"""The one decode front: every SZ block decodes as a chunk of the
encoder's chunker.

:func:`repro.compression.sz.decompress_many` (what
:func:`repro.compression.api.decompress_many` hands every SZ block) cuts
the dual-engine layout-2 blocks with the chunker ``compress_many`` uses
— same-shape groups, chunks of at most ``GROUP_LATTICE_BYTES`` of
lattice, chunks of blocks of at least ``FANOUT_MIN_ELEMENTS`` fanned out
over threads — and decodes each chunk in one unfold / scatter /
prefix-sum / dequantize pass; :func:`repro.compression.sz.decompress`
is a chunk of one.  None of that may change a bit or an error: every
array equals the value-by-value reference (``conftest.reference_decode``)
or the frozen fixtures' CRCs whatever the cut, the mix or the CPU count,
and every hostile payload or header is refused with the same
:class:`PayloadError` from inside any chunk or thread.
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import api, sz
from repro.compression.api import decompress_any, decompress_many
from repro.compression.codecs import PLANES_BIT
from repro.compression.container import load_blocks, save_blocks
from repro.compression.lorenzo import lorenzo_inverse_batch_inplace
from repro.compression.regression import AdaptiveSZCompressor
from repro.compression.sz import (
    FANOUT_MIN_ELEMENTS,
    GROUP_LATTICE_BYTES,
    SZCompressor,
    decompress,
)
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.core.pipeline import SnapshotResult
from repro.parallel.decomposition import BlockDecomposition
from repro.util import fanout
from repro.util.errors import PayloadError

#: width k -> (radius, bound as a fraction of the data's spread)
WIDTHS = {1: (1 << 15, 0.05), 2: (1 << 15, 1e-4), 4: (1 << 20, 1e-7)}
#: radii small enough that the same bounds leave outliers behind
TINY_RADIUS = {1: 2, 2: 150, 4: 70_000}
SHAPES = [(6, 5, 7), (8, 8, 8), (9, 13), (40,), (1, 4, 3)]
CPUS = (1, 2, 4)


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


def _assert_same_arrays(got, blocks, want_of):
    assert len(got) == len(blocks)
    for recon, block in zip(got, blocks):
        want = want_of(block)
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


class TestSameArrays:
    @given(
        shape=st.sampled_from(SHAPES),
        specs=st.lists(block_specs, min_size=1, max_size=7),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_group_and_each_block_alone(self, shape, specs, reference_decode):
        """Widths 1/2/4, outlier loads, modes, source dtypes and codecs
        mixed inside one same-shape group, and each as a chunk of one."""
        blocks = [_sz_block(shape, *spec) for spec in specs]
        _assert_same_arrays(decompress_many(blocks), blocks, reference_decode)
        _assert_same_arrays([decompress(b) for b in blocks], blocks, reference_decode)

    @given(
        specs=st.lists(
            st.tuples(st.sampled_from(SHAPES), block_specs), min_size=1, max_size=9
        ),
        cpus=st.sampled_from(CPUS),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_shapes_at_every_cpu_count(self, specs, cpus, reference_decode):
        blocks = [_sz_block(shape, *spec) for shape, spec in specs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sz, "usable_cpus", lambda: cpus)
            _assert_same_arrays(decompress_many(blocks), blocks, reference_decode)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_group_lengths_around_one_chunk(self, offset, reference_decode, monkeypatch):
        side = 32
        count = GROUP_LATTICE_BYTES // (8 * side**3) + offset
        views = [_field((side,) * 3, s) for s in range(count)]
        ebs = [0.01 * (1 + i % 3) for i in range(count)]
        blocks = SZCompressor().compress_many(views, ebs)
        want = {id(b): reference_decode(b) for b in blocks}
        for cpus in CPUS:
            monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
            _assert_same_arrays(decompress_many(blocks), blocks, lambda b: want[id(b)])

    def test_the_generator_reaches_every_width_and_outliers(self):
        for k in sorted(WIDTHS):
            for outliers in (False, True):
                block = _sz_block((8, 8, 8), k, np.float64, "abs", outliers, "zlib", 3)
                assert block.payloads["codes"][0] & ~PLANES_BIT <= k
                assert (block.n_outliers > 0) == outliers
            plain = _sz_block((8, 8, 8), k, np.float64, "abs", False, "zlib", 3)
            assert plain.payloads["codes"][0] & ~PLANES_BIT == k

    @pytest.mark.parametrize("cpus", CPUS)
    def test_mixed_families_in_one_list(
        self, cpus, v1_blocks, v2_blocks, recon_crc, reference_decode, monkeypatch
    ):
        """Classic, layout-1, ``sz_adaptive`` and ``zfp_like`` blocks keep
        their own decoders; the layout-2 blocks around them — the frozen
        ones included — are chunked."""
        monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
        rng = np.random.default_rng(11)
        cube = np.cumsum(rng.normal(0, 1, (8, 8, 8)), axis=0)
        fresh = [
            _sz_block((8, 8, 8), 2, np.float32, "abs", True, "zlib", 5),
            _sz_block((8, 8, 8), 1, np.float64, "pw_rel", False, "huffman", 6),
            _sz_block((8, 8, 8), 4, np.float64, "abs", False, "raw", 7),
        ]
        others = [
            ZFPLikeCompressor(rate=8).compress(cube),
            AdaptiveSZCompressor(block=4).compress(cube.astype(np.float32), 0.01),
            api.resolve_compressor("sz:engine=classic").compress(cube, 0.05),
        ]
        frozen = {id(b): crc for b, crc in v1_blocks.values()}
        frozen.update({id(b): row["crc32"] for b, row in v2_blocks.values()})
        blocks = [
            fresh[0], others[0], *(b for b, _ in v1_blocks.values()), fresh[1],
            others[1], *(b for b, _ in v2_blocks.values()), others[2], fresh[2],
        ]
        got = decompress_many(blocks)
        for recon, block in zip(got, blocks):
            if id(block) in frozen:
                assert recon_crc(block, recon) == frozen[id(block)]
            elif any(block is b for b in fresh):
                assert np.array_equal(recon, reference_decode(block))
            else:
                assert np.array_equal(recon, decompress_any(block))

    def test_views_of_one_array_per_chunk(self):
        blocks = [_sz_block((8, 8, 8), 1, np.float64, "abs", False, "zlib", s) for s in range(5)]
        got = decompress_many(blocks)
        base = got[0].base
        assert base is not None and base.shape == (5, 8, 8, 8)
        assert all(recon.base is base and recon.flags.c_contiguous for recon in got)


class TestChunksAndThreads:
    def test_long_groups_decode_in_bounded_chunks(self, monkeypatch):
        shape = (16, 16, 16)
        per_chunk = GROUP_LATTICE_BYTES // (8 * 16**3)
        assert per_chunk == 64  # one 64^3 field of 16^3 partitions
        views = [_field(shape, s) for s in range(per_chunk + 5)]
        blocks = SZCompressor().compress_many(views, [0.01] * len(views))
        lattices = []
        real = sz.lorenzo_inverse_batch_inplace

        def recording(lattice):
            lattices.append(lattice.nbytes)
            return real(lattice)

        monkeypatch.setattr(sz, "lorenzo_inverse_batch_inplace", recording)
        got = decompress_many(blocks)
        # the fewest even chunks: 69 blocks as 35 + 34
        assert lattices == [35 * 8 * 16**3, 34 * 8 * 16**3]
        assert got[0].base is not got[-1].base
        _assert_same_arrays(got, blocks, decompress)

    @pytest.mark.parametrize("side", [16, 32])
    def test_only_chunks_of_large_blocks_go_through_thread_map(self, side, monkeypatch):
        """Chunks of blocks of at least ``FANOUT_MIN_ELEMENTS`` elements
        go through :func:`~repro.util.fanout.thread_map` (whichever
        thread then runs them); smaller ones are decoded in the calling
        thread."""
        blocks = SZCompressor().compress_many(
            [_field((side,) * 3, s) for s in range(3)], [0.01, 0.02, 0.03]
        )
        maps, threads = [], set()
        real_map, real_chunk = sz.thread_map, sz._decompress_chunk

        def counted_map(fn, items):
            maps.append([[int(i) for i in chunk] for chunk in items])
            return real_map(fn, items)

        def counted_chunk(blocks, out):
            threads.add(threading.get_ident())
            return real_chunk(blocks, out)

        monkeypatch.setattr(sz, "thread_map", counted_map)
        monkeypatch.setattr(sz, "_decompress_chunk", counted_chunk)
        monkeypatch.setattr(sz, "usable_cpus", lambda: 2)
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
        got = decompress_many(blocks)
        if side**3 >= FANOUT_MIN_ELEMENTS:
            assert maps == [[[0, 1], [2]]]  # one chunk per CPU
        else:
            assert maps == [] and threads == {threading.get_ident()}
        _assert_same_arrays(got, blocks, decompress)


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

    @pytest.mark.parametrize("cpus", CPUS)
    def test_in_a_later_fanned_out_chunk(self, cpus, monkeypatch):
        monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)
        count = 2 * GROUP_LATTICE_BYTES // (8 * 32**3) + 3  # three chunks
        blocks = SZCompressor().compress_many(
            [_field((32, 32, 32), s) for s in range(count)], [0.01] * count
        )
        assert blocks[0].n_elements >= FANOUT_MIN_ELEMENTS
        blocks[-2].payloads["codes"] = blocks[-2].payloads["codes"][:-3]
        self._same_error(blocks, count - 2)


#: headers no encoder writes: name -> the fields to overwrite
HOSTILE_HEADERS = {
    "empty extent": {"shape": (0, 8, 8)},
    "negative extents": {"shape": (-8, -8, 8)},
    "four dimensions": {"shape": (2, 4, 8, 8)},
    "zero bound": {"eb": 0.0},
    "NaN bound": {"eb": float("nan")},
    "infinite bound": {"eb": float("inf")},
    "negative bound": {"eb": -0.01},
}


class TestHostileHeaders:
    """A block header is checked once, before any payload inflates: 1-3
    dimensions, every extent at least 1, a positive finite bound."""

    @staticmethod
    def _blocks(engine="dual"):
        views = [_field((8, 8, 8), s) for s in range(3)]
        comp = api.resolve_compressor(f"sz:engine={engine}")
        return comp.compress_many(views, [0.05] * 3)

    @pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
    def test_decompress_any_and_many(self, name, monkeypatch):
        blocks = self._blocks()
        blocks[2] = dataclasses.replace(blocks[2], **HOSTILE_HEADERS[name])
        with pytest.raises(PayloadError):
            decompress_any(blocks[2])
        inflated = []
        real = sz._group_row
        monkeypatch.setattr(sz, "_group_row", lambda *a: inflated.append(1) or real(*a))
        with pytest.raises(PayloadError):
            decompress_many(blocks)
        assert not inflated  # refused before the healthy blocks inflate

    def test_classic_engine_blocks_are_checked_too(self):
        for fields in HOSTILE_HEADERS.values():
            blocks = self._blocks("classic")
            blocks[0] = dataclasses.replace(blocks[0], **fields)
            with pytest.raises(PayloadError):
                decompress_any(blocks[0])
            with pytest.raises(PayloadError):
                decompress_many(blocks)

    @pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
    def test_through_a_container(self, name, tmp_path):
        path = str(tmp_path / "blocks.npz")
        save_blocks(path, self._blocks(), np.full(3, 0.05), 1)
        with zipfile.ZipFile(path) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        with zipfile.ZipFile(path) as zf, zf.open("__meta.npy") as f:
            meta = json.loads(np.lib.format.read_array(f).tobytes())
        meta["blocks"][1].update(
            {k: list(v) if k == "shape" else v for k, v in HOSTILE_HEADERS[name].items()}
        )
        member = io.BytesIO()
        np.lib.format.write_array(member, np.frombuffer(json.dumps(meta).encode(), np.uint8))
        members["__meta.npy"] = member.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for member_name, data in members.items():
                zf.writestr(member_name, data)
        blocks, _, _ = load_blocks(path)
        with pytest.raises(PayloadError):
            decompress_many(blocks)
        with pytest.raises(PayloadError):
            decompress_any(blocks[1])


@pytest.mark.parametrize(
    "shape", [(5, 16, 16, 16), (3, 9, 13), (4, 40), (2, 1, 4, 3), (3, 300, 2), (1, 7, 1, 1)]
)
def test_batched_prefix_sums_equal_per_block(shape):
    rng = np.random.default_rng(len(shape))
    stack = rng.integers(-(2**62), 2**62, shape, dtype=np.int64)  # sums wrap
    want = stack.copy()
    for axis in range(1, stack.ndim):
        want = np.cumsum(want, axis=axis)
    # Each block alone, as a stack of one, sums by other passes.
    rows = [lorenzo_inverse_batch_inplace(row[None].copy())[0] for row in stack]
    assert np.array_equal(lorenzo_inverse_batch_inplace(stack), want)
    assert np.array_equal(np.stack(rows), want)
