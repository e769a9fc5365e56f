"""The batched front's array functions and its byte-identity.

Two layers of guarantee, weakest to strongest:

1. op-level — each batched function matches the textbook form of its
   map (``oracles.py``: ``np.rint`` + cast, the ``np.diff`` chain, the
   value-by-value fold), block by block;
2. path-level — batched ``compress_many`` produces payloads
   byte-identical to looping single-block ``compress``, across codecs,
   shapes (odd sides, 1-voxel slabs), dtypes and thread counts.

There is one implementation and no option that picks one: the retired
``kernels=`` constructor argument is a ``TypeError`` and the retired
spec key is read from stored specs and ignored.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import fold, lorenzo

from repro.compression.api import REGISTRY
from repro.compression.kernels import (
    available_kernels,
    byte_planes,
    get_kernels,
    unzigzag,
    zigzag,
)
from repro.compression.lorenzo import lorenzo_transform_batch
from repro.compression.quantizer import encode_residuals_batch, quantize_lattice_batch
from repro.compression.sz import SZCompressor, decompress
from repro.util.errors import PayloadError


# -- op level: the batched functions vs the textbook forms -------------------


class TestZigzag:
    def test_interleaves_small_ints(self):
        v = np.array([0, -1, 1, -2, 2, -3], dtype=np.int64)
        assert zigzag(v).tolist() == [0, 1, 2, 3, 4, 5]

    def test_roundtrip_extremes(self):
        v = np.array(
            [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64
        )
        assert np.array_equal(unzigzag(zigzag(v)), v)

    @given(hnp.arrays(dtype=np.int64, shape=st.integers(0, 64)))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, v):
        assert np.array_equal(unzigzag(zigzag(v)), v)
        assert zigzag(v).dtype == np.uint64


class TestQuantizeKernel:
    def test_matches_rint_and_cast(self):
        rng = np.random.default_rng(0)
        work = rng.normal(0, 100, (3, 50))
        lattice = quantize_lattice_batch(work.copy())
        assert lattice.shape == work.shape and lattice.dtype == np.int32
        assert np.array_equal(lattice, np.rint(work).astype(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_reports_unrepresentable_without_raising(self, bad):
        work = np.ones((2, 8))
        work[1, 3] = bad
        assert quantize_lattice_batch(work) is None

    @pytest.mark.parametrize(
        "top, dtype",
        [
            (2**27 - 1, np.int32),
            (2**27, np.int64),
            (2**40, np.int64),
            (2**62 - 2**10, np.int64),
            (2**62, None),
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_rounded_range_picks_the_width(self, top, dtype, sign):
        """``max |q|`` below 2**27 is int32, below 2**62 int64, else
        unrepresentable; a negative extreme counts as its magnitude."""
        work = np.zeros((2, 9))
        work[1, 4] = sign * float(top) - sign * 0.25  # rounds to +-top
        lattice = quantize_lattice_batch(work.copy())
        if dtype is None:
            assert lattice is None
            return
        assert lattice.dtype == dtype
        assert int(lattice[1, 4]) == sign * top
        assert np.array_equal(lattice, np.rint(work).astype(np.int64))


class TestLorenzoKernel:
    @pytest.mark.parametrize("shape", [(7, 5, 3), (1, 1, 1), (8, 1, 4), (2, 9, 1)])
    def test_batch_matches_per_block_transform(self, shape):
        rng = np.random.default_rng(1)
        batch = rng.integers(-1000, 1000, (4,) + shape)
        expected = np.stack([lorenzo(b) for b in batch])
        got = batch.copy()
        out, _ = lorenzo_transform_batch(got, np.empty(got.size, dtype=got.dtype))
        assert np.array_equal(out, expected)

    def test_trailing_singleton_padding_is_identity(self):
        rng = np.random.default_rng(2)
        flat = rng.integers(-50, 50, (3, 17))
        as_3d = flat.reshape(3, 17, 1, 1).copy()
        expected = np.stack([lorenzo(row) for row in flat])
        out, _ = lorenzo_transform_batch(as_3d, np.empty(as_3d.size, dtype=as_3d.dtype))
        assert np.array_equal(out.reshape(3, 17), expected)


def _diff_chain(batch: np.ndarray) -> np.ndarray:
    """The Lorenzo residuals of each row of ``batch``: one zero-prepended
    ``np.diff`` per block axis."""
    return lorenzo(batch, first_axis=1)


class TestLorenzoPasses:
    """Each block axis is one pass over the flat buffers, ping-ponged
    between the batch and its scratch; the axis's index-0 plane is
    restored from the source, and the residuals stay in whichever buffer
    the last pass wrote: the batch after an even pass count, the
    scratch's prefix after an odd one."""

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 8, 8, 8),  # three passes: ends in scratch
            (5, 4, 6, 3),
            (4, 2, 2, 2),
            (3, 1, 6, 5),  # two passes: ends in the batch
            (3, 6, 1, 5),
            (3, 6, 5, 1),
            (2, 1, 1, 7),  # one pass along the innermost axis
            (2, 7, 1, 1),  # one pass along the outermost axis
            (1, 1, 1, 1),  # no pass
            (3, 16),
            (3, 5, 7),
        ],
    )
    def test_matches_the_diff_chain(self, shape):
        rng = np.random.default_rng(sum(shape))
        batch = rng.integers(-1000, 1000, shape)
        expected = _diff_chain(batch)
        got = batch.copy()
        out, _ = lorenzo_transform_batch(got, np.empty(got.size, dtype=got.dtype))
        assert out.shape == got.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "shape, passes",
        [
            ((2, 1, 1, 1), 0),
            ((3, 1, 1, 6), 1),
            ((3, 5, 1, 1), 1),
            ((3, 1, 6, 5), 2),
            ((3, 6, 5), 2),
            ((2, 5, 4, 3), 3),
        ],
        ids=["zero", "one-inner", "one-outer", "two", "two-2d", "three"],
    )
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_returns_the_buffer_holding_the_residuals(self, shape, passes, dtype):
        """Even pass counts leave the residuals in ``batch`` (returned
        as itself), odd ones in ``scratch`` (its prefix, in ``batch``'s
        shape); ``spare`` is the other buffer, flat, and free: the
        caller's scratch for the next step."""
        rng = np.random.default_rng(len(shape) + passes)
        batch = rng.integers(-1000, 1000, shape).astype(dtype)
        expected = _diff_chain(batch)
        scratch = np.empty(batch.size + 3, dtype=dtype)
        out, spare = lorenzo_transform_batch(batch, scratch)
        if passes % 2:
            assert out is not batch and np.shares_memory(out, scratch)
            assert out.base is not None and out.shape == batch.shape
            assert np.shares_memory(spare, batch) and spare.size == batch.size
        else:
            assert out is batch and not np.shares_memory(out, scratch)
            assert np.shares_memory(spare, scratch) and spare.size == scratch.size
        assert spare.ndim == 1 and not np.shares_memory(out, spare)
        spare[...] = 7  # clobbering the spare buffer leaves the result
        assert out.dtype == dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_batch_is_written_in_place(self, layout):
        rng = np.random.default_rng(6)
        base = rng.integers(-1000, 1000, (3, 10, 6, 5))
        if layout == "strided":
            before = base.copy()
            batch = base[:, ::2]
        else:
            batch = np.asfortranarray(base)
        expected = _diff_chain(batch)
        scratch = np.empty(batch.size, dtype=batch.dtype)
        out, spare = lorenzo_transform_batch(batch, scratch)
        assert out is batch and np.shares_memory(spare, scratch)
        assert np.array_equal(batch, expected)
        if layout == "strided":
            # the skipped planes of the base are untouched
            assert np.array_equal(base[:, 1::2], before[:, 1::2])

    def test_a_larger_scratch_is_used_by_its_prefix(self):
        rng = np.random.default_rng(7)
        batch = rng.integers(-50, 50, (2, 5, 4, 3))
        scratch = np.full(batch.size + 11, 99, dtype=batch.dtype)
        expected = _diff_chain(batch)
        out, _ = lorenzo_transform_batch(batch, scratch)  # three passes
        assert np.array_equal(out, expected)
        assert np.shares_memory(out, scratch[: batch.size])
        assert (scratch[batch.size :] == 99).all()

    def test_int64_differences_wrap_as_the_diff_chain_does(self):
        batch = np.zeros((2, 3, 3, 3), dtype=np.int64)
        batch[:, ::2, 1::2, ::2] = np.iinfo(np.int64).max
        batch[:, 1::2, ::2, 1::2] = np.iinfo(np.int64).min
        with np.errstate(over="ignore"):
            expected = _diff_chain(batch)
        out, _ = lorenzo_transform_batch(batch, np.empty(batch.size, dtype=batch.dtype))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_single_block_transform_keeps_the_dtype(self, dtype):
        """A lone block is a stack of one, and any dtype passes through."""
        rng = np.random.default_rng(8)
        block = rng.integers(-100, 100, (6, 5, 4)).astype(dtype)
        got, _ = lorenzo_transform_batch(block[None].copy(), np.empty(block.size, dtype))
        assert got.dtype == dtype
        assert np.array_equal(got[0], lorenzo(block))


#: Residuals at every stored-width edge of the fold (uint8 holds
#: |r| <= 127, uint16 the rest of the default radius), the outlier
#: threshold and the int64 extremes.
FOLD_EDGES = np.array(
    [0, -1, 1, 126, -126, 127, -127, 128, -128, 32766, -32766, 32767, -32767,
     32768, -32768, 2**62, -(2**62), 2**63 - 1, -(2**63)],
    dtype=np.int64,
)


class TestEncodeResidualsKernel:
    def test_matches_per_block_encode(self):
        """Against the symbol map spelled out value by value, block by
        block."""
        rng = np.random.default_rng(3)
        radius = 8
        res = rng.integers(-30, 30, (5, 40))
        got = res.copy()
        counts, pos, val, maxes = encode_residuals_batch(got, radius)
        lo = 0
        for b, row in enumerate(res):
            symbols, outliers, values = fold(row, radius)
            hi = lo + len(outliers)
            assert got[b].tolist() == symbols
            assert counts[b] == len(outliers) and maxes[b] == max(symbols)
            assert pos[lo:hi].tolist() == outliers
            assert val[lo:hi].tolist() == values
            lo = hi
        assert lo == pos.size == val.size

    def test_scratch_masks_are_optional_hints(self):
        rng = np.random.default_rng(4)
        res = rng.integers(-30, 30, (3, 16))
        scratch = np.empty(res.size + 5, dtype=np.int64)
        a = encode_residuals_batch(res.copy(), 8, scratch)
        b = encode_residuals_batch(res.copy(), 8)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_symbol_map_at_the_width_edges(self):
        got = FOLD_EDGES.reshape(1, -1).copy()
        counts, pos, val, maxes = encode_residuals_batch(got, 1 << 15)
        #           0  -1  1  126 -126 127 -127 128 -128
        assert got[0, :9].tolist() == [1, 2, 3, 253, 252, 255, 254, 257, 256]
        # +-32766, +-32767 still fit; +-32768 and beyond are outliers (symbol 0)
        assert got[0, 9:13].tolist() == [65533, 65532, 65535, 65534]
        assert got[0, 13:].tolist() == [0] * 6
        assert counts.tolist() == [6] and maxes.tolist() == [65535]
        assert pos.tolist() == list(range(13, 19))
        assert np.array_equal(val, FOLD_EDGES[13:])


#: Residuals an int32 lattice can hold (``|r| < 2**30``, the Lorenzo
#: bound of ``max |q| < 2**27``), with the fold's width edges.
INT32_EDGES = np.array(
    [0, -1, 1, 127, -127, 128, -128, 32767, -32767, 32768, -32768,
     2**30 - 8, -(2**30 - 8), 2**30 - 1, -(2**30 - 1)],
    dtype=np.int64,
)


class TestEncodeResidualsWidths:
    """An int32 stack folds to the int64 stack's symbols, outliers and
    maxes value for value; only the symbols keep the narrow dtype."""

    @pytest.mark.parametrize(
        "radius",
        [2, 8, 1 << 15, 2**30, 2**31, 2**31 + 1, 2**40],
        ids=["2", "8", "default", "2^30", "2^31", "clamped", "2^40"],
    )
    def test_int32_stack_folds_as_the_int64_one(self, radius):
        rng = np.random.default_rng(radius % 1000)
        res = np.concatenate(
            [INT32_EDGES, rng.integers(-(2**30) + 1, 2**30, 49)]
        ).reshape(4, 16)
        wide, narrow = res.copy(), res.astype(np.int32)
        a = encode_residuals_batch(wide, radius)
        b = encode_residuals_batch(narrow, radius, np.empty(narrow.size, np.int32))
        assert narrow.dtype == np.int32
        assert np.array_equal(narrow, wide)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert b[2].dtype == np.int64  # outlier values come back wide

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("edge", [-1, 1], ids=["minus-radius", "plus-radius"])
    def test_a_lone_misfit_just_past_the_bound_is_found(self, dtype, edge):
        """The only misfit of the chunk is ``+-radius``, whose zigzag is
        ``2*radius - 1`` or ``2*radius``: one or two past the compare's
        bound, and it must be found."""
        radius = 1 << 15
        res = np.zeros((2, 8), dtype)
        res[0, :] = [radius - 1, -(radius - 1), 3, -3, 0, 1, -1, 2]
        res[1, 5] = edge * radius
        counts, pos, val, maxes = encode_residuals_batch(res, radius)
        assert counts.tolist() == [0, 1]
        assert pos.tolist() == [5] and val.tolist() == [edge * radius]
        assert res[1, 5] == 0 and maxes.tolist() == [2 * radius - 1, 1]

    def test_a_radius_past_the_unsigned_range_clamps(self):
        """``2*radius - 2`` over 2**32 - 1 compares as 2**32 - 1 on an
        int32 stack: every residual fits, as it does on int64."""
        res = INT32_EDGES.reshape(1, -1)
        for radius in (2**31 + 1, 2**33, 2**62):
            narrow = res.astype(np.int32)
            counts, pos, val, maxes = encode_residuals_batch(narrow, radius)
            assert counts.tolist() == [0] and pos.size == val.size == 0
            assert narrow[0].tolist() == [
                (2 * r if r >= 0 else -2 * r - 1) + 1 for r in INT32_EDGES.tolist()
            ]
            assert maxes.tolist() == [2 * (2**30 - 1) + 1]


class TestBytePlanes:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_byte_planes_roundtrip(self, dtype):
        rng = np.random.default_rng(5)
        info = np.iinfo(dtype)
        v = rng.integers(0, int(info.max), 33, dtype=dtype)
        k = v.dtype.itemsize
        out = np.empty((k, v.size), dtype=np.uint8)
        byte_planes(v, out)
        rebuilt = np.zeros(v.size, dtype=np.uint64)
        for plane in range(k):
            rebuilt |= out[plane].astype(np.uint64) << np.uint64(8 * plane)
        assert np.array_equal(rebuilt.astype(dtype), v)
        # Little-endian planes are exactly the C-contiguous byte layout.
        assert out.tobytes(order="F") == v.astype(v.dtype.newbyteorder("<")).tobytes()

    def test_byte_planes_validates_inputs(self):
        with pytest.raises(ValueError, match="integer"):
            byte_planes(
                np.ones(4, dtype=np.float64), np.empty((8, 4), dtype=np.uint8)
            )
        with pytest.raises(ValueError, match="shape"):
            byte_planes(
                np.ones(4, dtype=np.uint16), np.empty((3, 4), dtype=np.uint8)
            )
        with pytest.raises(ValueError, match="shape"):
            byte_planes(
                np.ones((2, 4), dtype=np.int64), np.empty((2, 4), dtype=np.uint8)
            )

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_byte_planes_narrow_a_stack_to_its_low_planes(self, k):
        """The hot-path form: ``(B, n)`` int64 symbols -> ``(B, k, n)``
        rows; ``k = 1`` is the exact cast to uint8."""
        rng = np.random.default_rng(6)
        top = 256**k - 1 if k < 8 else 2**63 - 1
        sym = rng.integers(0, top, (3, 21), dtype=np.int64, endpoint=True)
        sym[0, 0], sym[1, 1] = 0, top
        out = np.empty((3, k, 21), dtype=np.uint8)
        byte_planes(sym, out)
        for plane in range(k):
            assert np.array_equal(out[:, plane, :], (sym >> (8 * plane)) & 0xFF)


# -- one implementation: nothing selects between kernels ----------------------


class TestNoKernelOption:
    def test_constructor_takes_no_kernels_argument(self):
        with pytest.raises(TypeError, match="kernels"):
            SZCompressor(kernels="numpy")

    def test_spec_has_exactly_the_four_sz_options(self):
        assert sorted(SZCompressor().spec.options) == ["codec", "engine", "mode", "radius"]
        assert sorted(REGISTRY.defaults("sz")) == ["codec", "engine", "mode", "radius"]

    @pytest.mark.parametrize(
        "plain, stamped",
        [("sz", "sz:kernels={}"), ("sz:engine=classic", "sz:engine=classic,kernels={}")],
    )
    @pytest.mark.parametrize("retired", ["auto", "numpy", "numba"])
    def test_retired_spec_key_is_read_and_ignored(self, plain, stamped, retired):
        assert REGISTRY.canonical(stamped.format(retired)) == REGISTRY.canonical(plain)

    def test_other_values_of_the_retired_key_are_still_unknown(self):
        with pytest.raises(ValueError, match=r"unknown parameter\(s\) \['kernels'\]"):
            REGISTRY.canonical("sz:kernels=cuda")
        with pytest.raises(ValueError, match=r"unknown parameter\(s\) \['kernels'\]"):
            REGISTRY.canonical("sz_adaptive:kernels=auto")

    def test_pickle_round_trip(self):
        comp = SZCompressor(codec="huffman", radius=64)
        comp.compress(np.zeros((4, 4, 4)), 0.1)  # scratch is the thread's: nothing to travel
        clone = pickle.loads(pickle.dumps(comp))
        assert clone.spec == comp.spec
        rng = np.random.default_rng(12)
        views = [rng.normal(0, 10, (6, 5, 4)) for _ in range(3)]
        assert _payloads(clone.compress_many(views, [0.01] * 3)) == _payloads(
            comp.compress_many(views, [0.01] * 3)
        )

    def test_bench_provenance_shim(self):
        """``bench/harness.py`` records these two; one implementation,
        so they are constants."""
        assert available_kernels() == ("numpy",)
        assert get_kernels("auto").name == "numpy"


# -- path level: batched == single-block, across everything -------------------


def _payloads(blocks):
    return [b.payloads for b in blocks]


class TestBatchedByteIdentity:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7),
            elements=st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False),
        ),
        st.floats(1e-3, 1e2),
        st.sampled_from(["zlib", "huffman", "raw"]),
        st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_compress_many_matches_single_compress(self, data, eb, codec, n_blocks):
        comp = SZCompressor(codec=codec)
        views = [data] * n_blocks
        batched = comp.compress_many(views, [eb] * n_blocks)
        singles = [comp.compress(v, eb) for v in views]
        assert _payloads(batched) == _payloads(singles)

    @pytest.mark.parametrize(
        "shape", [(1,), (3,), (5, 1), (1, 1, 7), (4, 4, 4), (7, 5, 3)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_shapes_and_dtypes(self, shape, dtype):
        rng = np.random.default_rng(7)
        views = [rng.normal(0, 10, shape).astype(dtype) for _ in range(3)]
        comp = SZCompressor()
        batched = comp.compress_many(views, [0.01] * 3)
        singles = [comp.compress(v, 0.01) for v in views]
        assert _payloads(batched) == _payloads(singles)
        for blk, v in zip(batched, views):
            assert np.max(np.abs(decompress(blk) - v)) <= 0.01 * (1 + 1e-9)

    def test_mixed_shapes_group_correctly(self):
        rng = np.random.default_rng(8)
        shapes = [(6, 5, 4), (3, 3), (6, 5, 4), (17,), (3, 3)]
        views = [rng.normal(0, 5, s) for s in shapes]
        ebs = [0.01, 0.02, 0.05, 0.01, 0.03]
        comp = SZCompressor(codec="huffman")
        batched = comp.compress_many(views, ebs)
        singles = [comp.compress(v, e) for v, e in zip(views, ebs)]
        assert _payloads(batched) == _payloads(singles)
        for blk, s in zip(batched, shapes):
            assert blk.shape == s

    def test_thread_fanout_preserves_bytes_and_order(self, monkeypatch):
        from repro.compression import sz

        rng = np.random.default_rng(9)
        views = [rng.normal(0, 1, (8, 8, 8)) for _ in range(6)]
        comp = SZCompressor()
        monkeypatch.setattr(sz, "usable_cpus", lambda: 1)
        serial = comp.compress_many(views, [0.01] * 6)
        monkeypatch.setattr(sz, "usable_cpus", lambda: 4)
        fanned = comp.compress_many(views, [0.01] * 6)
        assert _payloads(serial) == _payloads(fanned)

    def test_outlier_heavy_blocks_batch_identically(self):
        rng = np.random.default_rng(10)
        comp = SZCompressor(radius=16)  # tiny radius forces outliers
        views = [rng.normal(0, 100, (6, 6, 6)) for _ in range(4)]
        batched = comp.compress_many(views, [0.01] * 4)
        singles = [comp.compress(v, 0.01) for v in views]
        assert _payloads(batched) == _payloads(singles)
        assert any(b.n_outliers for b in batched)

    def test_pw_rel_mode_batches_identically(self):
        rng = np.random.default_rng(11)
        comp = SZCompressor(mode="pw_rel")
        views = [np.abs(rng.normal(10, 3, (5, 5, 5))) + 0.1 for _ in range(3)]
        batched = comp.compress_many(views, [0.05] * 3)
        singles = [comp.compress(v, 0.05) for v in views]
        assert _payloads(batched) == _payloads(singles)


class TestOutlierPosFormat:
    def test_positions_narrowed_to_block_size(self):
        rng = np.random.default_rng(13)
        comp = SZCompressor(radius=16)
        block = comp.compress(rng.normal(0, 100, (6, 6, 6)), 0.01)
        assert block.n_outliers > 0
        blob = block.payloads["outlier_pos"]
        assert blob[0] == 1  # 216 values -> positions fit uint8
        stored = np.frombuffer(zlib.decompress(blob[1:]), dtype=np.uint8)
        assert stored.size == block.n_outliers
        big = comp.compress(rng.normal(0, 100, (8, 8, 8)), 0.01)
        assert big.payloads["outlier_pos"][0] == 2  # 512 values -> uint16

    def test_legacy_int64_position_blobs_still_decode(self, v1_blocks, recon_crc):
        """Bare-zlib int64 positions: read for the frozen layout-1 block
        (through ``compat``), refused by the layout-2 decoder."""
        block, crc = v1_blocks["legacy bare-zlib int64 outlier positions"]
        assert block.layout == 1 and block.n_outliers > 0
        legacy = block.payloads["outlier_pos"]
        assert legacy[0] == 0x78  # zlib magic, distinct from any width tag
        assert recon_crc(block, decompress(block)) == crc
        rng = np.random.default_rng(14)
        fresh = SZCompressor(radius=16).compress(rng.normal(0, 100, (6, 6, 6)), 0.01)
        blob = fresh.payloads["outlier_pos"]
        pos = np.frombuffer(zlib.decompress(blob[1:]), dtype=f"u{blob[0]}")
        fresh.payloads["outlier_pos"] = zlib.compress(pos.astype(np.int64).tobytes(), 6)
        with pytest.raises(PayloadError, match="width tag"):
            decompress(fresh)
