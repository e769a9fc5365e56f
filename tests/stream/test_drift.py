"""Standardized-residual drift detection."""

from __future__ import annotations

import math

import pytest

from repro.stream.drift import DriftConfig, DriftDetector


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"z_threshold": 0.0},
            {"window": 0},
            {"min_points": 0},
            {"min_points": 5, "window": 4},
            {"rate_sigma": 0.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)

    def test_has_no_quality_margin(self):
        # Drift is judged on rate alone: the quality channel is gone.
        with pytest.raises(TypeError, match="quality_margin"):
            DriftConfig(quality_margin=1.0)


class TestRateChannel:
    def test_stationary_residuals_stay_silent(self):
        det = DriftDetector("t", DriftConfig(z_threshold=3.0, rate_sigma=0.1))
        for _ in range(10):
            # 2% prediction error: well inside one sigma.
            assert det.update_rate(1.0, 1.02) is None

    def test_persistent_bias_fires(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=3.0, window=4, min_points=2, rate_sigma=0.1)
        )
        signal = None
        for _ in range(4):
            signal = det.update_rate(1.0, 1.5) or signal
        assert signal is not None
        assert signal.field == "t"
        assert abs(signal.z) > 3.0

    def test_zscore_matches_formula(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=100.0, window=4, min_points=1, rate_sigma=0.08)
        )
        det.update_rate(1.0, 1.3)
        det.update_rate(1.0, 1.1)
        residuals = [math.log(1.3), math.log(1.1)]
        expected = (sum(residuals) / 2) * math.sqrt(2) / 0.08
        assert det.zscore() == pytest.approx(expected, rel=1e-12)

    def test_min_points_gates_firing(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=1.0, window=4, min_points=3, rate_sigma=0.01)
        )
        assert det.update_rate(1.0, 2.0) is None
        assert det.update_rate(1.0, 2.0) is None
        assert det.update_rate(1.0, 2.0) is not None

    def test_window_forgets_old_residuals(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=5.0, window=2, min_points=1, rate_sigma=0.1)
        )
        det.update_rate(1.0, 3.0)  # huge residual...
        for _ in range(2):
            det.update_rate(1.0, 1.0)  # ...pushed out by two clean ones
        assert det.zscore() == 0.0

    def test_reset_clears_state(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=3.0, window=4, min_points=1, rate_sigma=0.1)
        )
        assert det.update_rate(1.0, 2.0) is not None
        det.reset()
        assert det.n_points == 0
        assert det.zscore() == 0.0
        # A fresh window must re-accumulate before firing again.
        assert det.update_rate(1.0, 1.01) is None

    def test_underprediction_also_fires(self):
        det = DriftDetector(
            "t", DriftConfig(z_threshold=3.0, window=2, min_points=1, rate_sigma=0.1)
        )
        signal = det.update_rate(2.0, 1.0)  # achieved far below predicted
        assert signal is not None and signal.z < 0

    def test_nonpositive_bitrates_rejected(self):
        det = DriftDetector("t")
        with pytest.raises(ValueError):
            det.update_rate(0.0, 1.0)

