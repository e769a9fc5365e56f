"""The assembled compressor: bound guarantees, ratios, self-description."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.sz import SZCompressor, decompress


class TestErrorBound:
    @pytest.mark.parametrize("codec", ["zlib", "huffman", "raw"])
    def test_abs_bound_all_codecs(self, smooth_field, codec):
        comp = SZCompressor(codec=codec)
        for eb in (0.01, 1.0):
            block = comp.compress(smooth_field, eb)
            recon = comp.decompress(block)
            assert np.max(np.abs(recon - smooth_field)) <= eb + 1e-9

    def test_abs_bound_noisy(self, noisy_field):
        comp = SZCompressor()
        block = comp.compress(noisy_field, 0.5)
        recon = comp.decompress(block)
        assert np.max(np.abs(recon - noisy_field)) <= 0.5 + 1e-9

    def test_pw_rel_bound(self):
        rng = np.random.default_rng(0)
        data = np.exp(rng.normal(0, 2, (16, 16, 16))).astype(np.float32)
        comp = SZCompressor(mode="pw_rel")
        block = comp.compress(data, 0.05)
        recon = comp.decompress(block)
        assert np.max(np.abs(recon / data.astype(np.float64) - 1.0)) <= 0.05 + 1e-9

    def test_pw_rel_rejects_nonpositive(self):
        comp = SZCompressor(mode="pw_rel")
        with pytest.raises(ValueError, match="positive data"):
            comp.compress(np.array([[[1.0, -2.0]]]), 0.01)

    def test_1d_and_2d(self):
        rng = np.random.default_rng(1)
        comp = SZCompressor()
        for shape in [(100,), (30, 40)]:
            data = rng.normal(0, 3, shape)
            block = comp.compress(data, 0.1)
            assert np.max(np.abs(comp.decompress(block) - data)) <= 0.1 + 1e-9


class TestRateBehaviour:
    def test_smooth_compresses_better_than_noise(self, smooth_field, noisy_field):
        comp = SZCompressor()
        eb = 0.1
        assert (
            comp.compress(smooth_field, eb).ratio
            > comp.compress(noisy_field, eb).ratio
        )

    def test_larger_eb_smaller_bitrate(self, noisy_field):
        comp = SZCompressor()
        rates = [comp.compress(noisy_field, eb).bit_rate for eb in (0.01, 0.1, 1.0, 5.0)]
        assert rates == sorted(rates, reverse=True)

    def test_ratio_accounts_for_source_dtype(self, smooth_field):
        comp = SZCompressor()
        b32 = comp.compress(smooth_field.astype(np.float32), 0.1)
        b64 = comp.compress(smooth_field.astype(np.float64), 0.1)
        assert b32.source_itemsize == 4
        assert b64.source_itemsize == 8
        assert b64.ratio > b32.ratio  # same payload, bigger source

    def test_outlier_heavy_data_still_bounded(self):
        rng = np.random.default_rng(2)
        # Huge dynamic jumps overflow a tiny radius, forcing outliers.
        data = rng.choice([0.0, 1e7], size=(8, 8, 8)).astype(np.float64)
        comp = SZCompressor(radius=8)
        block = comp.compress(data, 0.5)
        assert block.n_outliers > 0
        assert np.max(np.abs(comp.decompress(block) - data)) <= 0.5 + 1e-9


class TestBlockSelfDescription:
    def test_module_level_decompress(self, smooth_field):
        comp = SZCompressor(codec="huffman", mode="abs")
        block = comp.compress(smooth_field, 0.2)
        # No compressor instance needed.
        recon = decompress(block)
        assert np.max(np.abs(recon - smooth_field)) <= 0.2 + 1e-9

    def test_decompress_ignores_instance_settings(self, smooth_field):
        producer = SZCompressor(codec="zlib", mode="abs")
        consumer = SZCompressor(codec="huffman", mode="pw_rel")
        block = producer.compress(smooth_field, 0.2)
        recon = consumer.decompress(block)
        assert np.max(np.abs(recon - smooth_field)) <= 0.2 + 1e-9

    def test_block_metadata(self, smooth_field):
        comp = SZCompressor()
        block = comp.compress(smooth_field, 0.25)
        assert block.shape == smooth_field.shape
        assert block.eb == 0.25
        assert block.n_elements == smooth_field.size
        assert block.nbytes > 0
        assert block.bit_rate == pytest.approx(8 * block.nbytes / block.n_elements)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SZCompressor().compress(np.empty((0, 3, 3)), 0.1)

    def test_rejects_4d(self):
        with pytest.raises(ValueError, match="1-3 dimensional"):
            SZCompressor().compress(np.zeros((2, 2, 2, 2)), 0.1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SZCompressor(mode="fixed_rate")

    def test_rejects_nonpositive_eb(self, smooth_field):
        with pytest.raises(ValueError, match="positive"):
            SZCompressor().compress(smooth_field, -1.0)
