"""SZ2-style adaptive predictor (Lorenzo vs block regression)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import regression
from repro.compression.regression import (
    AdaptiveSZCompressor,
    regression_coefficients,
)
from repro.compression.sz import SZCompressor


class TestRegressionFit:
    def test_recovers_exact_hyperplane(self):
        b = 8
        i, j, k = np.meshgrid(*([np.arange(b) - 3.5] * 3), indexing="ij")
        plane = 5.0 + 2.0 * i - 1.5 * j + 0.5 * k
        coeffs = regression_coefficients(plane[None])
        assert np.allclose(coeffs[0], [5.0, 2.0, -1.5, 0.5])

    def test_constant_block(self):
        coeffs = regression_coefficients(np.full((1, 4, 4, 4), 7.0))
        assert np.allclose(coeffs[0], [7.0, 0.0, 0.0, 0.0])

    def test_vectorized_over_blocks(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(0, 1, (10, 4, 4, 4))
        all_at_once = regression_coefficients(blocks)
        one_by_one = np.vstack([regression_coefficients(b[None]) for b in blocks])
        assert np.allclose(all_at_once, one_by_one)


class TestAdaptiveCompressor:
    def test_error_bound_holds(self, smooth_field):
        comp = AdaptiveSZCompressor(block=8)
        for eb in (0.05, 0.5):
            stream = comp.compress(smooth_field, eb)
            recon = comp.decompress(stream)
            assert np.max(np.abs(recon - smooth_field)) <= eb + 1e-9

    def test_error_bound_on_noise(self, noisy_field):
        comp = AdaptiveSZCompressor(block=8)
        stream = comp.compress(noisy_field, 0.5)
        recon = comp.decompress(stream)
        assert np.max(np.abs(recon - noisy_field)) <= 0.5 + 1e-9

    def test_regression_wins_on_sloped_noisy_data(self):
        """A steep ramp plus noise defeats Lorenzo (residual carries the
        noise twice) but suits the hyperplane predictor."""
        rng = np.random.default_rng(1)
        b = 8
        x = np.arange(32, dtype=np.float64)
        ramp = 50.0 * x[:, None, None] + 30.0 * x[None, :, None] + 10.0 * x[None, None, :]
        # Noise well above the bound: Lorenzo differences amplify it by
        # sqrt(8) while the hyperplane absorbs the slope without touching
        # the noise.
        data = ramp + rng.normal(0, 2.0, (32, 32, 32))
        eb = 0.25
        adaptive = AdaptiveSZCompressor(block=b).compress(data, eb)
        plain = SZCompressor().compress(data, eb)
        assert adaptive.ratio > plain.ratio

    def test_mode_mask_mixes_predictors(self, snapshot):
        """Real cosmology data should use both predictors somewhere."""
        import zlib

        data = snapshot["temperature"].astype(np.float64)
        comp = AdaptiveSZCompressor(block=8)
        stream = comp.compress(data, 10.0)
        nblocks = data.size // 8**3
        use_reg = np.unpackbits(
            np.frombuffer(zlib.decompress(stream.payloads["modes"]), dtype=np.uint8),
            count=nblocks,
        ).astype(bool)
        # At least the mask is well-formed; on most data both modes appear.
        assert use_reg.shape == (nblocks,)

    def test_rejects_bad_shapes(self):
        comp = AdaptiveSZCompressor(block=8)
        with pytest.raises(ValueError, match="3-D"):
            comp.compress(np.zeros((8, 8)), 0.1)
        with pytest.raises(ValueError, match="divide"):
            comp.compress(np.zeros((10, 8, 8)), 0.1)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError, match="block"):
            AdaptiveSZCompressor(block=1)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_bound_property(self, seed, eb):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 10, (8, 8, 8))
        comp = AdaptiveSZCompressor(block=4)
        recon = comp.decompress(comp.compress(data, eb))
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9) + 1e-12


NON_FINITE = "data contains non-finite values (NaN or Inf)"
OVERFLOW = (
    "error bound too small relative to data magnitude: quantization "
    "lattice exceeds int64 range"
)


class TestInputContract:
    """Bad input raises its ``ValueError`` before any stream is built."""

    @pytest.fixture(autouse=True)
    def _no_stream(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bad input reached the stream")

        monkeypatch.setattr(regression, "AdaptiveBlockStream", refuse)

    @staticmethod
    def _run(batched: bool, data: np.ndarray, eb: float) -> None:
        comp = AdaptiveSZCompressor(block=4)
        if batched:
            comp.compress_many([data, np.zeros((4, 4, 4))], [eb, eb])
        else:
            comp.compress(data, eb)

    @pytest.mark.parametrize("batched", [False, True], ids=["compress", "compress_many"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, bad, dtype, batched):
        data = np.ones((8, 8, 4), dtype)
        data[5, 2, 3] = bad
        with pytest.raises(ValueError) as err:
            self._run(batched, data, 0.1)
        assert str(err.value) == NON_FINITE

    @pytest.mark.parametrize("batched", [False, True], ids=["compress", "compress_many"])
    def test_lattice_overflow(self, batched):
        data = np.zeros((4, 8, 4))
        data[1, 6, 2] = 1e300
        with pytest.raises(ValueError) as err:
            self._run(batched, data, 1e-10)
        assert str(err.value) == OVERFLOW

    @pytest.mark.parametrize("batched", [False, True], ids=["compress", "compress_many"])
    @pytest.mark.parametrize("eb", [0.0, -0.5])
    def test_non_positive_bound(self, eb, batched):
        with pytest.raises(ValueError) as err:
            self._run(batched, np.ones((4, 4, 4)), eb)
        assert str(err.value) == f"eb must be a positive finite number, got {eb!r}"


class TestHostileHeader:
    """``decompress`` refuses a header no encoder writes with a
    ``PayloadError``, before any channel inflates."""

    @pytest.fixture(scope="class")
    def stream(self):
        data = np.random.default_rng(3).normal(size=(8, 8, 4))
        return AdaptiveSZCompressor(block=4).compress(data, 0.05)

    @pytest.fixture(autouse=True)
    def _no_inflate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a hostile header reached a payload")

        monkeypatch.setattr(regression, "inflate_exact", refuse)

    @staticmethod
    def _refused(stream, match: str, **header) -> None:
        from dataclasses import replace

        from repro.util.errors import PayloadError

        with pytest.raises(PayloadError, match=match):
            regression.decompress(replace(stream, **header))

    def test_block_zero(self, stream):
        self._refused(stream, "block 0", block=0)

    def test_block_one(self, stream):
        self._refused(stream, "block 1", block=1)

    def test_negative_outlier_count(self, stream):
        self._refused(stream, "outlier count -1", n_outliers=-1)

    def test_outlier_count_past_the_stream(self, stream):
        self._refused(stream, "outlier count 257", n_outliers=8 * 8 * 4 + 1)

    @pytest.mark.parametrize("eb", [0.0, -0.05, np.nan, np.inf])
    def test_bound_not_positive_and_finite(self, stream, eb):
        self._refused(stream, "error bound", eb=eb)

    @pytest.mark.parametrize("shape", [(8, 32), (8, 8, 4, 1), (8, 8, 0)])
    def test_shape_not_3d(self, stream, shape):
        self._refused(stream, "is not 3-D", shape=shape)

    @pytest.mark.parametrize("shape", [(8, 8, 6), (9, 8, 4)])
    def test_shape_not_divisible_by_the_block(self, stream, shape):
        self._refused(stream, "is not 3-D in whole 4", shape=shape)

    def test_the_good_stream_still_decodes(self, stream, monkeypatch):
        monkeypatch.undo()
        assert regression.decompress(stream).shape == (8, 8, 4)
