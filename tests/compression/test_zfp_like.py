"""Fixed-rate comparator codec: rate guarantees and reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.zfp_like import (
    _BLOCK,
    _WIDTH,
    ZFPLikeCompressor,
    _bit_allocation,
    _forward_axis,
    _inverse_axis,
    _pack_coeffs,
    _unpack_coeffs,
)


class TestTransform:
    def test_axis_transform_invertible(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-(2**30), 2**30, (10, 4, 4, 4)).astype(np.int64)
        for axis in (1, 2, 3):
            fwd = _forward_axis(blocks, axis)
            assert np.array_equal(_inverse_axis(fwd, axis), blocks)

    def test_full_3d_transform_invertible(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-(2**28), 2**28, (5, 4, 4, 4)).astype(np.int64)
        fwd = blocks
        for axis in (1, 2, 3):
            fwd = _forward_axis(fwd, axis)
        inv = fwd
        for axis in (3, 2, 1):
            inv = _inverse_axis(inv, axis)
        assert np.array_equal(inv, blocks)


class TestTransformProperties:
    """Property tests: the integer S-transform is exactly invertible."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        magnitude=st.integers(min_value=1, max_value=2**40),
        axis=st.sampled_from([1, 2, 3]),
    )
    def test_single_axis_exact_inverse(self, seed, magnitude, axis):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-magnitude, magnitude, (4, 4, 4, 4)).astype(np.int64)
        assert np.array_equal(_inverse_axis(_forward_axis(blocks, axis), axis), blocks)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        magnitude=st.integers(min_value=1, max_value=2**38),
    )
    def test_full_3d_exact_inverse(self, seed, magnitude):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-magnitude, magnitude, (3, 4, 4, 4)).astype(np.int64)
        fwd = blocks
        for axis in (1, 2, 3):
            fwd = _forward_axis(fwd, axis)
        inv = fwd
        for axis in (3, 2, 1):
            inv = _inverse_axis(inv, axis)
        assert np.array_equal(inv, blocks)

    def test_adversarial_patterns_exact(self):
        # Constant, alternating-sign, and single-spike blocks.
        patterns = [
            np.full((1, 4, 4, 4), 7, dtype=np.int64),
            np.fromfunction(
                lambda b, i, j, k: (-1) ** (i + j + k), (1, 4, 4, 4)
            ).astype(np.int64)
            * (2**30),
            np.zeros((1, 4, 4, 4), dtype=np.int64),
        ]
        patterns[2][0, 1, 2, 3] = -(2**40)
        for blocks in patterns:
            fwd = blocks
            for axis in (1, 2, 3):
                fwd = _forward_axis(fwd, axis)
            inv = fwd
            for axis in (3, 2, 1):
                inv = _inverse_axis(inv, axis)
            assert np.array_equal(inv, blocks)


class TestBitAllocation:
    def test_budget_met(self):
        for rate in (2.0, 8.0, 16.0):
            bits = _bit_allocation(rate)
            assert bits.sum() <= int(rate * 64)

    def test_low_frequency_favoured(self):
        bits = _bit_allocation(4.0).reshape(4, 4, 4)
        assert bits[0, 0, 0] >= bits[3, 3, 3]

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(min_value=1.0, max_value=24.0))
    def test_exact_budget_adherence(self, rate):
        """Stored bits per block (magnitudes + sign bits) equal the
        ``round(rate * 64)`` budget, up to one unspendable bit."""
        bits = _bit_allocation(rate)
        budget = int(round(rate * _BLOCK**3))
        stored = int(bits.sum() + (bits > 0).sum())  # + one sign bit per kept
        assert stored <= budget
        assert budget - stored <= 1

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=1.0, max_value=16.0))
    def test_payload_matches_allocation_exactly(self, rate):
        """The packed stream spends exactly the allocated bits per block."""
        rng = np.random.default_rng(1234)
        data = rng.normal(0, 1, (8, 8, 8))
        comp = ZFPLikeCompressor(rate=rate)
        stream = comp.compress(data)
        bits = comp._bits
        per_block = int(bits.sum() + (bits > 0).sum())
        nblocks = stream.exponents.size
        assert len(stream.payload) == -(-nblocks * per_block // 8)  # ceil-div
        # Payload bits/value never exceed the configured rate.
        payload_rate = 8.0 * len(stream.payload) / (nblocks * _BLOCK**3)
        assert payload_rate <= rate + 8.0 / (nblocks * _BLOCK**3)


class TestCodec:
    def test_round_trip_accuracy_improves_with_rate(self, smooth_field):
        errs = []
        for rate in (2.0, 6.0, 12.0):
            comp = ZFPLikeCompressor(rate=rate)
            recon = comp.decompress(comp.compress(smooth_field))
            errs.append(np.sqrt(np.mean((recon - smooth_field) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_bitrate_near_target(self, noisy_field):
        comp = ZFPLikeCompressor(rate=8.0)
        stream = comp.compress(noisy_field)
        # Payload rate is exact; exponents/header add a small overhead.
        assert 8.0 <= stream.bit_rate <= 10.0

    def test_non_multiple_of_block_shape(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0, 1, (10, 7, 5))
        comp = ZFPLikeCompressor(rate=12.0)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape

    @settings(max_examples=25, deadline=None)
    @given(
        nx=st.integers(min_value=1, max_value=9),
        ny=st.integers(min_value=1, max_value=9),
        nz=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_arbitrary_shapes_round_trip(self, nx, ny, nz, seed):
        """Any 3-D shape (edge-padded to 4^3 tiles) reconstructs at its
        original shape with bounded RMS error at a generous rate."""
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, (nx, ny, nz))
        comp = ZFPLikeCompressor(rate=16.0)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape
        assert float(np.sqrt(np.mean((recon - data) ** 2))) < 1e-2

    def test_f32_and_f64_inputs(self):
        """f32 input: same transform path (internally f64), f32 itemsize
        charged to the ratio; reconstructions agree to f32 precision."""
        rng = np.random.default_rng(5)
        data64 = rng.normal(0, 1, (8, 8, 8))
        data32 = data64.astype(np.float32)
        comp = ZFPLikeCompressor(rate=12.0)
        s64 = comp.compress(data64)
        s32 = comp.compress(data32)
        assert s64.source_itemsize == 8
        assert s32.source_itemsize == 4
        # Same payload size either way (fixed rate), but the f64 source
        # is credited a 2x larger ratio denominatorwise.
        assert len(s64.payload) == len(s32.payload)
        assert s64.ratio == pytest.approx(2.0 * s32.ratio)
        r64 = comp.decompress(s64)
        r32 = comp.decompress(s32)
        assert np.allclose(r64, r32, atol=1e-5)
        # Integer (non-float) input is charged at 8 bytes/value like SZ.
        ints = ZFPLikeCompressor(rate=8.0).compress(
            rng.integers(0, 100, (4, 4, 4)).astype(np.int64)
        )
        assert ints.source_itemsize == 8

    def test_zero_field(self):
        comp = ZFPLikeCompressor(rate=4.0)
        data = np.zeros((8, 8, 8))
        recon = comp.decompress(comp.compress(data))
        assert np.allclose(recon, 0.0, atol=1e-6)

    def test_no_absolute_error_bound(self):
        """The paper's reason for choosing SZ: fixed-rate ZFP cannot bound error.

        Demonstrate that pointwise error at fixed rate grows with data
        spikiness rather than staying constant.
        """
        rng = np.random.default_rng(3)
        gentle = rng.normal(0, 1, (16, 16, 16))
        spiky = gentle.copy()
        spiky[::2, ::2, ::2] *= 1000
        comp = ZFPLikeCompressor(rate=4.0)
        err_gentle = np.max(np.abs(comp.decompress(comp.compress(gentle)) - gentle))
        err_spiky = np.max(np.abs(comp.decompress(comp.compress(spiky)) - spiky))
        assert err_spiky > 10 * err_gentle

    def test_rejects_low_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ZFPLikeCompressor(rate=0.5)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            ZFPLikeCompressor(rate=4.0).compress(np.zeros((4, 4)))


def reference_pack(coeffs: np.ndarray, bits: np.ndarray) -> bytes:
    """The bit packer as first written: a loop per coefficient, one
    ``(nblocks, b + 1)`` bit matrix each, concatenated and packed."""
    kept = bits > 0
    signs = (coeffs[:, kept] < 0).astype(np.uint8)
    mags = np.minimum(np.abs(coeffs[:, kept]).astype(np.uint64), (1 << _WIDTH) - 1)
    chunks = []
    for col, b in enumerate(bits[kept]):
        b = int(b)
        top = mags[:, col] >> np.uint64(_WIDTH - b)
        colbits = np.empty((len(coeffs), b + 1), dtype=np.uint8)
        colbits[:, 0] = signs[:, col]
        shifts = np.arange(b - 1, -1, -1, dtype=np.uint64)
        colbits[:, 1:] = ((top[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        chunks.append(colbits)
    return np.packbits(np.concatenate(chunks, axis=1).ravel()).tobytes()


def reference_unpack(payload: bytes, nblocks: int, bits: np.ndarray) -> np.ndarray:
    """The unpacker as first written: a loop per coefficient and per bit."""
    kept = bits > 0
    kept_bits = bits[kept].astype(np.int64)
    per_block = int((kept_bits + 1).sum())
    mat = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=nblocks * per_block
    ).reshape(nblocks, per_block)
    coeffs = np.zeros((nblocks, len(bits)), dtype=np.int64)
    pos = 0
    for col, b in zip(np.flatnonzero(kept), kept_bits):
        b = int(b)
        sign = mat[:, pos].astype(np.int64)
        val = np.zeros(nblocks, dtype=np.uint64)
        for j in range(b):
            val = (val << np.uint64(1)) | mat[:, pos + 1 + j].astype(np.uint64)
        mag = val.astype(np.int64) << (_WIDTH - b)
        if _WIDTH - b > 0:
            mag = np.where(mag > 0, mag + (1 << (_WIDTH - b - 1)), 0)
        coeffs[:, col] = np.where(sign == 1, -mag, mag)
        pos += b + 1
    return coeffs


class TestWholeArrayBitPacking:
    """``_pack_coeffs`` / ``_unpack_coeffs`` run whole-array passes; the
    loops above are what they must equal, byte for byte."""

    @given(
        rate=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 31.0, 32.0]),
        nblocks=st.integers(1, 40),
        magnitude=st.sampled_from([1, 300, 2**20, 2**31]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_to_the_loops(self, rate, nblocks, magnitude, seed):
        bits = _bit_allocation(rate)
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-magnitude, magnitude + 1, (nblocks, _BLOCK**3), dtype=np.int64)
        coeffs[:, rng.random(_BLOCK**3) < 0.2] = 0  # exactly-zero coefficients
        payload = _pack_coeffs(coeffs, bits)
        assert payload == reference_pack(coeffs, bits)
        assert np.array_equal(
            _unpack_coeffs(payload, nblocks, bits), reference_unpack(payload, nblocks, bits)
        )

    @pytest.mark.parametrize("rate", range(1, 33))
    def test_every_integer_rate(self, rate):
        bits = _bit_allocation(float(rate))
        rng = np.random.default_rng(rate)
        coeffs = rng.integers(-(2**31), 2**31 + 1, (17, _BLOCK**3), dtype=np.int64)
        payload = _pack_coeffs(coeffs, bits)
        assert payload == reference_pack(coeffs, bits)
        noise = rng.integers(0, 256, len(payload), dtype=np.uint8).tobytes()
        for blob in (payload, noise):
            assert np.array_equal(
                _unpack_coeffs(blob, 17, bits), reference_unpack(blob, 17, bits)
            )
