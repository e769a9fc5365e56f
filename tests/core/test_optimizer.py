"""Per-partition optimization strategies (§3.6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures
from repro.core.optimizer import (
    local_protocol_bound,
    optimize_combined,
    optimize_for_halo,
    optimize_for_spectrum,
    rank_order_mean,
)
from repro.models.halo_error import halo_mass_error_budget
from repro.models.rate_model import RateModel


def _features(means, rates=None):
    rates = rates if rates is not None else [None] * len(means)
    return [
        PartitionFeatures(rank=i, n_cells=4096, mean_abs=m, effective_cell_rate=r)
        for i, (m, r) in enumerate(zip(means, rates))
    ]


@pytest.fixture
def model() -> RateModel:
    return RateModel(exponent=-0.7, coef_alpha=0.0, coef_beta=0.5)


class TestSpectrumOptimization:
    def test_mean_preserved(self, model):
        feats = _features([0.1, 1.0, 10.0, 100.0])
        res = optimize_for_spectrum(feats, model, eb_avg=0.5)
        assert res.eb_mean == pytest.approx(0.5, rel=1e-9)

    def test_higher_mean_gets_higher_eb(self, model):
        """Harder (higher-C) partitions trade quality for rate (§3.1)."""
        feats = _features([0.1, 1.0, 10.0])
        res = optimize_for_spectrum(feats, model, eb_avg=0.5)
        assert res.ebs[0] < res.ebs[1] < res.ebs[2]

    def test_clamp(self, model):
        feats = _features([1e-6, 1.0, 1e6])
        res = optimize_for_spectrum(
            feats, model, eb_avg=1.0, settings=OptimizerSettings(clamp_factor=4.0)
        )
        assert res.ebs.min() >= 0.25 - 1e-12
        assert res.ebs.max() <= 4.0 + 1e-12

    def test_local_normalization_close_to_exact(self, model):
        feats = _features(list(np.logspace(-0.5, 0.5, 32)))
        exact = optimize_for_spectrum(feats, model, eb_avg=1.0)
        local = optimize_for_spectrum(
            feats, model, eb_avg=1.0, settings=OptimizerSettings(normalization="local")
        )
        # The paper's one-allreduce protocol approximates the constraint.
        assert local.eb_mean == pytest.approx(1.0, rel=0.2)
        assert np.corrcoef(exact.ebs, local.ebs)[0, 1] > 0.99

    def test_predicted_bitrates_returned(self, model):
        feats = _features([1.0, 2.0])
        res = optimize_for_spectrum(feats, model, eb_avg=0.5)
        assert res.predicted_bitrates.shape == (2,)
        assert (res.predicted_bitrates > 0).all()

    def test_rejects_empty_features(self, model):
        with pytest.raises(ValueError, match="at least one"):
            optimize_for_spectrum([], model, eb_avg=0.5)


class TestLocalProtocol:
    """The paper's one-allreduce protocol as scalar per-rank arithmetic."""

    def test_rank_order_mean_is_a_left_fold(self):
        # allreduce("sum") folds the ranks left to right, so the order
        # of the ranks shows in the rounding; a pairwise or exact sum
        # would give 1/3 both times.
        assert rank_order_mean([1e16, 1.0, -1e16]) == 0.0
        assert rank_order_mean([1e16, -1e16, 1.0]) == 1.0 / 3.0

    def test_rank_order_mean_of_one_rank(self):
        assert rank_order_mean([0.7]) == 0.7

    def test_rank_order_mean_rejects_no_ranks(self):
        with pytest.raises(ValueError, match="at least one"):
            rank_order_mean([])

    def test_rank_at_the_global_mean_gets_the_average_bound(self, model):
        settings = OptimizerSettings(normalization="local")
        assert local_protocol_bound(2.5, 2.5, model, 0.5, settings) == 0.5

    def test_bound_clamped_around_the_average(self, model):
        settings = OptimizerSettings(normalization="local", clamp_factor=4.0)
        assert local_protocol_bound(1e-12, 1.0, model, 0.5, settings) == 0.5 / 4.0
        assert local_protocol_bound(1e12, 1.0, model, 0.5, settings) == 0.5 * 4.0

    def test_shared_global_coefficient_changes_nothing(self, model):
        settings = OptimizerSettings(normalization="local")
        shared = float(model.predict_coefficient(1.3))
        for mean_abs in (0.2, 1.3, 7.0):
            assert local_protocol_bound(
                mean_abs, 1.3, model, 0.5, settings, global_coefficient=shared
            ) == local_protocol_bound(mean_abs, 1.3, model, 0.5, settings)

    def test_local_branch_is_the_per_rank_bound(self, model):
        means = [0.3, 1.0, 2.0, 9.0]
        settings = OptimizerSettings(normalization="local")
        res = optimize_for_spectrum(_features(means), model, 0.5, settings)
        want = [
            local_protocol_bound(m, rank_order_mean(means), model, 0.5, settings)
            for m in means
        ]
        assert res.ebs.tolist() == want


class TestHaloOptimization:
    def test_budget_satisfied(self, model):
        rates = [100.0, 400.0, 50.0]
        feats = _features([1.0, 5.0, 0.2], rates)
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=2000.0)
        res = optimize_for_halo(feats, model, halo)
        used = halo_mass_error_budget(50.0, np.array(rates), res.ebs)
        assert used <= 2000.0 * (1 + 1e-6)
        assert res.constraint == "halo"

    def test_feature_dense_partitions_protected(self, model):
        """More boundary cells -> smaller error bound."""
        feats = _features([1.0, 1.0, 1.0], [10.0, 100.0, 1000.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=1000.0)
        res = optimize_for_halo(feats, model, halo)
        assert res.ebs[0] > res.ebs[1] > res.ebs[2]

    def test_requires_rates(self, model):
        feats = _features([1.0, 2.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=100.0)
        with pytest.raises(ValueError, match="effective_cell_rate"):
            optimize_for_halo(feats, model, halo)

    def test_no_boundary_cells_rejected(self, model):
        feats = _features([1.0, 2.0], [0.0, 0.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=100.0)
        with pytest.raises(ValueError, match="vacuous"):
            optimize_for_halo(feats, model, halo)


class TestCombinedOptimization:
    def test_loose_budget_keeps_spectrum_solution(self, model):
        feats = _features([0.5, 1.0, 2.0], [1.0, 2.0, 1.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=1e9)
        spec = optimize_for_spectrum(feats, model, eb_avg=0.5)
        combined = optimize_combined(feats, model, eb_avg=0.5, halo=halo)
        assert not combined.halo_constrained
        assert np.allclose(combined.ebs, spec.ebs)

    def test_tight_budget_caps_bounds(self, model):
        feats = _features([0.5, 1.0, 2.0], [100.0, 200.0, 400.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=50.0)
        combined = optimize_combined(feats, model, eb_avg=0.5, halo=halo)
        spec = optimize_for_spectrum(feats, model, eb_avg=0.5)
        assert combined.halo_constrained
        assert (combined.ebs <= spec.ebs + 1e-12).all()
        assert combined.halo_budget_used <= 50.0 * (1 + 1e-6)

    def test_both_constraints_hold_after_capping(self, model):
        """The §3.6 'boundary condition': average never rises, budget met."""
        feats = _features([0.5, 1.0, 5.0], [500.0, 10.0, 1.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=500.0)
        combined = optimize_combined(feats, model, eb_avg=1.0, halo=halo)
        assert combined.eb_mean <= 1.0 + 1e-9
        assert combined.halo_budget_used <= 500.0 * (1 + 1e-6)

    def test_requires_rates(self, model):
        feats = _features([1.0])
        halo = HaloQualitySpec(t_boundary=50.0, mass_budget=100.0)
        with pytest.raises(ValueError, match="effective_cell_rate"):
            optimize_combined(feats, model, eb_avg=0.5, halo=halo)
