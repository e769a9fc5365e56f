"""In situ feature extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import PartitionFeatures, extract_features, histogram_entropy


class TestExtractFeatures:
    def test_mean_abs(self):
        arr = np.array([[[-2.0, 2.0], [4.0, -4.0]]])
        f = extract_features(arr, rank=3)
        assert f.mean_abs == 3.0
        assert f.rank == 3
        assert f.n_cells == 4

    def test_boundary_rate_only_with_threshold(self):
        arr = np.full((4, 4, 4), 10.0)
        assert extract_features(arr).effective_cell_rate is None
        f = extract_features(arr, t_boundary=10.5, reference_eb=1.0)
        assert f.effective_cell_rate == 64.0

    def test_entropy_is_not_an_in_situ_feature(self):
        """The rejected feature stays out of the rank loop: the ablation
        bench calls :func:`histogram_entropy` itself."""
        arr = np.random.default_rng(0).normal(0, 1, (6, 6, 6))
        assert not hasattr(extract_features(arr), "entropy")
        with pytest.raises(TypeError, match="with_entropy"):
            extract_features(arr, with_entropy=True)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            extract_features(np.empty((0, 2, 2)))

    def test_features_validation(self):
        with pytest.raises(ValueError, match="n_cells"):
            PartitionFeatures(rank=0, n_cells=0, mean_abs=1.0)
        with pytest.raises(ValueError, match="mean_abs"):
            PartitionFeatures(rank=0, n_cells=1, mean_abs=-1.0)


class TestEntropy:
    def test_constant_field_zero_entropy(self):
        assert histogram_entropy(np.full((4, 4, 4), 3.0)) == 0.0

    def test_uniform_has_max_entropy(self):
        rng = np.random.default_rng(1)
        uniform = rng.random(100_000)
        peaked = rng.normal(0.5, 0.01, 100_000)
        assert histogram_entropy(uniform) > histogram_entropy(peaked)

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(2)
        h = histogram_entropy(rng.random(10_000), bins=64)
        assert h <= np.log2(64) + 1e-9
