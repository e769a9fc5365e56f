"""The fused-kernel equivalence contract.

The fused compress path (batched passes, in-place Lorenzo, single
narrowing pass) must be a pure performance change: payloads
byte-identical to composing the textbook forms of each step
(``oracles.py``) exactly as the original implementation did, across
modes and codecs — and
compressors hold no scratch, so threads sharing one, or each holding
its own, write the serial bytes.
"""

from __future__ import annotations

import pickle
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import fold, lorenzo, quantize

from repro.compression.codecs import _minimal_uint_dtype, get_codec
from repro.compression.kernels import zigzag
from repro.compression.lorenzo import lorenzo_transform_batch
from repro.compression.sz import SZCompressor, decompress
from repro.util.errors import PayloadError


def reference_compress_payloads(
    data: np.ndarray, eb: float, mode: str, codec: str, radius: int
) -> dict[str, bytes]:
    """The unfused reference pipeline, composed from textbook forms.

    Mirrors the original (unfused) implementation step for step:
    float64 upcast, ``np.rint`` quantize, ``np.diff`` Lorenzo, the
    value-by-value residual fold (code-stream layout 2: ``0`` = outlier,
    ``r -> zigzag(r) + 1``), codec over the int64 symbols.  The outlier
    position channel follows the serialization contract: positions
    narrowed to the smallest uint covering the block size, prefixed by
    a 1-byte itemsize tag.
    """
    work = np.asarray(data, dtype=np.float64)
    if mode == "pw_rel":
        abs_eb = float(np.log1p(eb))
        work = np.log(work)
    else:
        abs_eb = eb
    symbols, positions, values = fold(lorenzo(quantize(work, abs_eb)), radius)
    pos_dt = _minimal_uint_dtype(max(len(symbols) - 1, 0))
    pos = np.array(positions, dtype=pos_dt)
    return {
        "codes": get_codec(codec).encode(np.array(symbols, dtype=np.int64)),
        "outlier_pos": (
            bytes([pos_dt.itemsize]) + zlib.compress(pos.tobytes(), 6)
            if pos.size
            else b""
        ),
        "outlier_val": (
            zlib.compress(zigzag(np.array(values, dtype=np.int64)).tobytes(), 6)
            if values
            else b""
        ),
    }


class TestFusedKernels:
    def test_lorenzo_matches_diff_chain(self):
        rng = np.random.default_rng(0)
        for shape in ((17,), (9, 13), (5, 6, 7)):
            arr = rng.integers(-1000, 1000, shape)
            stack = arr[None].copy()  # one block: a stack of one
            got, _ = lorenzo_transform_batch(stack, np.empty(stack.size, stack.dtype))
            assert np.array_equal(got[0], lorenzo(arr))

    def test_lorenzo_batch_rejects_bad_scratch(self):
        batch = np.zeros((2, 4, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="scratch"):
            lorenzo_transform_batch(batch, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="scratch"):
            lorenzo_transform_batch(batch, np.zeros(batch.size, dtype=np.int32))

    @pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
    def test_payloads_match_reference_across_codecs(self, codec):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 10, (12, 10, 8))
        comp = SZCompressor(codec=codec)
        block = comp.compress(data, 0.05)
        ref = reference_compress_payloads(data, 0.05, "abs", codec, comp.radius)
        assert block.payloads == ref
        recon = decompress(block)
        assert np.max(np.abs(recon - data)) <= 0.05 * (1 + 1e-9)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
            elements=st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False),
        ),
        st.floats(1e-3, 1e2),
        st.sampled_from(["zlib", "huffman", "raw"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_payloads_byte_identical_to_reference(self, data, eb, codec):
        comp = SZCompressor(codec=codec)
        block = comp.compress(data, eb)
        ref = reference_compress_payloads(data, eb, "abs", codec, comp.radius)
        assert block.payloads == ref

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(4, 4, 4),
            elements=st.floats(1e-3, 1e6, allow_nan=False),
        ),
        st.floats(1e-3, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_pw_rel_byte_identical_to_reference(self, data, rel):
        comp = SZCompressor(mode="pw_rel")
        block = comp.compress(data, rel)
        ref = reference_compress_payloads(data, rel, "pw_rel", "zlib", comp.radius)
        assert block.payloads == ref

    def test_float32_input_byte_identical_to_reference(self):
        rng = np.random.default_rng(11)
        data = rng.normal(0, 5, (10, 9, 8)).astype(np.float32)
        comp = SZCompressor()
        block = comp.compress(data, 0.01)
        ref = reference_compress_payloads(data, 0.01, "abs", "zlib", comp.radius)
        assert block.payloads == ref
        assert block.source_itemsize == 4

    def test_empty_outlier_channels_store_empty_bytes(self):
        data = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)
        block = SZCompressor().compress(data, 0.01)
        assert block.n_outliers == 0
        assert block.payloads["outlier_pos"] == b""
        assert block.payloads["outlier_val"] == b""
        assert np.max(np.abs(decompress(block) - data)) <= 0.01 * (1 + 1e-9)

    def test_legacy_zlib_empty_channels_still_decode(self, v1_blocks, recon_crc):
        """Blocks written before the empty-payload short-circuit load fine
        (the frozen layout-1 block); layout 2 never wrote the form and
        its decoder refuses it."""
        block, crc = v1_blocks["legacy zlib(b'') empty channels"]
        assert block.layout == 1
        assert block.payloads["outlier_pos"] == zlib.compress(b"", 6)
        assert recon_crc(block, decompress(block)) == crc
        data = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)
        fresh = SZCompressor().compress(data, 0.01)
        fresh.payloads["outlier_pos"] = zlib.compress(b"", 6)
        with pytest.raises(PayloadError, match="stored for 0 positions"):
            decompress(fresh)

    def test_outliers_roundtrip_through_fused_path(self):
        rng = np.random.default_rng(5)
        comp = SZCompressor(radius=16)  # tiny radius forces outliers
        data = rng.normal(0, 100, (8, 8, 8))
        block = comp.compress(data, 0.01)
        assert block.n_outliers > 0
        assert block.payloads["outlier_pos"] != b""
        recon = decompress(block)
        assert np.max(np.abs(recon - data)) <= 0.01 * (1 + 1e-9) + 1e-12


class TestNoScratchInTheCompressor:
    """A compressor is its configuration: it keeps no scratch between
    calls, so it pickles as plain state and threads need no care."""

    def test_compressors_hold_no_scratch_and_pickle_as_plain_state(self):
        comp = SZCompressor(codec="huffman")
        comp.compress(np.linspace(0, 1, 64), 0.01)
        assert set(vars(comp)) == {"mode", "codec", "radius"}
        clone = pickle.loads(pickle.dumps(comp))
        assert clone.mode == comp.mode and clone.codec.name == "huffman"
        data = np.linspace(0, 2, 128)
        assert clone.compress(data, 0.01).payloads == comp.compress(data, 0.01).payloads

    @pytest.mark.parametrize("shared", [True, False], ids=["same-instance", "own-instances"])
    def test_concurrent_threads_produce_the_serial_bytes(self, shared):
        """More threads than cores and a short switch interval: scratch
        shared between two threads would be scribbled over."""
        rng = np.random.default_rng(13)
        arrays = [rng.normal(0, 1 + i, (12, 12, 12)) for i in range(24)]
        one = SZCompressor()
        expected = [one.compress(a, 0.01).payloads for a in arrays]

        def work(a):
            comp = one if shared else SZCompressor()
            block, est = comp.compress(a, 0.01), comp.estimate_ladder([a, a], [0.01, 0.02])
            assert est[0][0].n_elements == a.size
            return block.payloads

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, arrays, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
