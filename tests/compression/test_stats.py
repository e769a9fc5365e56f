"""Compression statistics aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.stats import (
    CompressionStats,
    bit_rate,
    compression_ratio,
    max_abs_error,
)
from repro.compression.sz import SZCompressor


class TestScalarMetrics:
    def test_bit_rate(self):
        assert bit_rate(100, 100) == 8.0
        assert bit_rate(50, 100) == 4.0

    def test_bit_rate_rejects_zero_elements(self):
        with pytest.raises(ValueError, match="positive"):
            bit_rate(10, 0)

    def test_compression_ratio(self):
        assert compression_ratio(100, 100, source_itemsize=4) == 4.0

    def test_ratio_rejects_zero_bytes(self):
        with pytest.raises(ValueError, match="positive"):
            compression_ratio(0, 100)

    def test_max_abs_error(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.5, 2.0, 2.0])
        assert max_abs_error(a, b) == 1.0

    def test_max_abs_error_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            max_abs_error(np.zeros(3), np.zeros(4))


class TestAggregation:
    def test_from_blocks(self, smooth_field, noisy_field):
        comp = SZCompressor()
        blocks = [comp.compress(smooth_field, 0.1), comp.compress(noisy_field, 0.1)]
        stats = CompressionStats.from_blocks(blocks)
        assert stats.n_blocks == 2
        assert stats.total_elements == smooth_field.size + noisy_field.size
        assert stats.total_nbytes == sum(b.nbytes for b in blocks)
        assert stats.overall_bit_rate == pytest.approx(
            8 * stats.total_nbytes / stats.total_elements
        )
        assert stats.overall_ratio == pytest.approx(
            4 * stats.total_elements / stats.total_nbytes
        )

    def test_overall_between_extremes(self, smooth_field, noisy_field):
        comp = SZCompressor()
        blocks = [comp.compress(smooth_field, 0.1), comp.compress(noisy_field, 0.1)]
        stats = CompressionStats.from_blocks(blocks)
        rates = stats.per_block_bit_rates
        assert rates.min() <= stats.overall_bit_rate <= rates.max()

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CompressionStats.from_blocks([])

    def test_rejects_mixed_itemsize(self, smooth_field):
        comp = SZCompressor()
        b1 = comp.compress(smooth_field.astype(np.float32), 0.1)
        b2 = comp.compress(smooth_field.astype(np.float64), 0.1)
        with pytest.raises(ValueError, match="mixed"):
            CompressionStats.from_blocks([b1, b2])


class TestSizesReadOnce:
    """``from_blocks`` reads each block's ``nbytes`` / ``n_elements`` once
    and divides arrays; every field must equal the per-block Python
    arithmetic it replaced, exactly, for every family's blocks."""

    SPECS = ["sz", "sz:engine=classic", "zfp_like:rate=6", "sz_adaptive"]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_per_block_values(self, spec, dtype, smooth_field, noisy_field):
        from repro.compression.api import resolve_compressor

        comp = resolve_compressor(spec)
        cut = 8 if spec == "sz:engine=classic" else 24  # the classic loop is per cell
        views = [f[:cut, :cut, :cut].astype(dtype) for f in (smooth_field, noisy_field)]
        views.append(np.float32(3.0) * views[0])
        blocks = comp.compress_many(views, [0.1, 0.5, 1e-3])
        stats = CompressionStats.from_blocks(blocks)
        assert stats.n_blocks == len(blocks)
        assert stats.total_elements == sum(b.n_elements for b in blocks)
        assert stats.total_nbytes == sum(b.nbytes for b in blocks)
        assert stats.source_itemsize == blocks[0].source_itemsize
        assert stats.per_block_bit_rates.dtype == np.float64
        assert stats.per_block_bit_rates.tolist() == [b.bit_rate for b in blocks]
        assert stats.per_block_ratios.tolist() == [b.ratio for b in blocks]

    def test_reads_each_size_once(self, smooth_field, monkeypatch):
        from repro.compression import sz

        blocks = SZCompressor().compress_many([smooth_field] * 3, [0.1, 0.2, 0.3])
        reads = []
        real = sz.CompressedBlock.nbytes
        monkeypatch.setattr(
            sz.CompressedBlock, "nbytes", property(lambda b: reads.append(1) or real.fget(b))
        )
        CompressionStats.from_blocks(blocks)
        assert len(reads) == len(blocks)
