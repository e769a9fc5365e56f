"""Generic distortion metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import (
    FieldMoments,
    error_summary,
    mse,
    nrmse,
    psnr,
)


class TestMetrics:
    def test_mse(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 1.0])
        assert mse(a, b) == 1.0

    def test_psnr_identical_infinite(self):
        a = np.array([1.0, 2.0])
        assert psnr(a, a.copy()) == float("inf")

    def test_psnr_known_value(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.1, 1.0])
        expected = 20 * np.log10(1.0) - 10 * np.log10(0.005)
        assert psnr(a, b) == pytest.approx(expected)

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 1000)
        p1 = psnr(a, a + rng.normal(0, 0.01, 1000))
        p2 = psnr(a, a + rng.normal(0, 0.1, 1000))
        assert p1 > p2

    def test_nrmse_normalized(self):
        a = np.array([0.0, 10.0])
        b = np.array([1.0, 10.0])
        assert nrmse(a, b) == pytest.approx(np.sqrt(0.5) / 10.0)

    def test_nrmse_zero_range_rejected(self):
        a = np.ones(5)
        with pytest.raises(ValueError, match="range"):
            nrmse(a, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mse(np.empty(0), np.empty(0))


class TestFusedMetrics:
    def _pair(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 10, (12, 12, 12))
        return a, a + rng.normal(0, 0.5, a.shape)

    def test_matches_standalone_functions(self):
        a, b = self._pair()
        s = error_summary(a, b)
        assert s.mse == pytest.approx(mse(a, b), rel=1e-12)
        assert s.psnr_db == pytest.approx(psnr(a, b), rel=1e-12)
        assert s.nrmse_value == pytest.approx(nrmse(a, b), rel=1e-12)

    def test_identical_arrays_infinite_psnr(self):
        a, _ = self._pair()
        s = error_summary(a, a.copy())
        assert s.psnr_db == float("inf")
        assert s.mse == 0.0 and s.nrmse_value == 0.0

    def test_zero_range_errors_match_unfused_order(self):
        flat = np.full(16, 2.0)
        # Nonzero error: psnr() raises first in the unfused sequence.
        with pytest.raises(ValueError, match="PSNR undefined"):
            error_summary(flat, flat + 1.0)
        # Zero error: psnr() returns inf, then nrmse() raises.
        with pytest.raises(ValueError, match="NRMSE undefined"):
            error_summary(flat, flat.copy())

    def test_cached_moments_skip_minmax(self):
        a, b = self._pair()
        moments = FieldMoments.from_field(a)
        assert error_summary(a, b, moments=moments) == error_summary(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            error_summary(np.zeros(3), np.zeros(4))


class TestFieldMoments:
    def test_values(self):
        a = np.array([1.0, -2.0, 4.0])
        m = FieldMoments.from_field(a)
        assert m.minimum == -2.0 and m.maximum == 4.0
        assert m.value_range == 6.0
        assert m.total == 3.0
        assert m.total_sq == pytest.approx(21.0)
        assert m.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FieldMoments.from_field(np.empty(0))
