"""Rate model fitting and the closed-form optimizer (Eqs. 15-16)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sopt

from repro.models.rate_model import RateModel, fit_power_law, optimal_error_bounds


class TestPowerLawFit:
    def test_recovers_exact_power_law(self):
        ebs = np.array([0.1, 0.3, 1.0, 3.0])
        c_true, coef_true = -0.8, 2.5
        rates = coef_true * ebs**c_true
        coef, c, r2 = fit_power_law(ebs, rates)
        assert coef == pytest.approx(coef_true)
        assert c == pytest.approx(c_true)
        assert r2 == pytest.approx(1.0)

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(0)
        ebs = np.logspace(-1, 1, 10)
        rates = 3.0 * ebs**-0.6 * np.exp(rng.normal(0, 0.05, 10))
        _, c, r2 = fit_power_law(ebs, rates)
        assert c == pytest.approx(-0.6, abs=0.1)
        assert r2 > 0.9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, -2.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="two samples"):
            fit_power_law(np.array([1.0]), np.array([1.0]))


class TestRateModel:
    def _model(self) -> RateModel:
        return RateModel(exponent=-0.7, coef_alpha=0.5, coef_beta=0.4)

    def test_coefficient_monotone_in_mean(self):
        m = self._model()
        assert m.predict_coefficient(10.0) > m.predict_coefficient(1.0)

    def test_bitrate_decreases_with_eb(self):
        m = self._model()
        assert m.predict_bitrate(1.0, 2.0) < m.predict_bitrate(1.0, 1.0)

    def test_marginal_cost_negative(self):
        m = self._model()
        assert (m.marginal_bit_cost(np.array([1.0, 5.0]), 0.5) < 0).all()

    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError, match="negative"):
            RateModel(exponent=0.5, coef_alpha=0.0, coef_beta=0.0)

    def test_feature_floor_protects_log(self):
        m = self._model()
        assert np.isfinite(m.predict_coefficient(0.0))


class TestOptimalErrorBounds:
    def test_uniform_coefficients_give_uniform_bounds(self):
        ebs = optimal_error_bounds(np.full(16, 3.0), 0.5, -0.7)
        assert np.allclose(ebs, 0.5)

    def test_mean_constraint_exact(self):
        rng = np.random.default_rng(1)
        coeffs = np.exp(rng.normal(0, 0.5, 64))
        ebs = optimal_error_bounds(coeffs, 0.25, -0.8)
        assert ebs.mean() == pytest.approx(0.25, rel=1e-9)

    def test_harder_partitions_get_larger_bounds(self):
        """§3.1: sacrifice quality on low-compressibility partitions."""
        coeffs = np.array([1.0, 2.0, 4.0])
        ebs = optimal_error_bounds(coeffs, 1.0, -0.5)
        assert ebs[0] < ebs[1] < ebs[2]

    def test_clamp_respected(self):
        coeffs = np.array([1e-3, 1.0, 1e3])
        ebs = optimal_error_bounds(coeffs, 1.0, -0.5, clamp_factor=4.0)
        assert ebs.min() >= 0.25 - 1e-12
        assert ebs.max() <= 4.0 + 1e-12

    def test_matches_numerical_optimizer(self):
        """The closed form must beat/match scipy on the true objective."""
        rng = np.random.default_rng(2)
        coeffs = np.exp(rng.normal(0, 0.6, 12))
        c = -0.7
        eb_avg = 0.5
        ours = optimal_error_bounds(coeffs, eb_avg, c, clamp_factor=100.0)

        def objective(ebs):
            return float(np.sum(coeffs * np.maximum(ebs, 1e-12) ** c))

        cons = {"type": "eq", "fun": lambda ebs: ebs.mean() - eb_avg}
        x0 = np.full(12, eb_avg)
        res = sopt.minimize(
            objective,
            x0,
            constraints=[cons],
            bounds=[(1e-6, 100)] * 12,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert objective(ours) <= objective(res.x) * (1 + 1e-6)

    def test_weighted_constraint(self):
        """Halo weights: heavily-weighted partitions get smaller bounds."""
        coeffs = np.full(3, 2.0)
        weights = np.array([1.0, 4.0, 16.0])
        ebs = optimal_error_bounds(coeffs, 0.5, -0.7, weights=weights, clamp_factor=50)
        assert ebs[0] > ebs[1] > ebs[2]
        # Weighted constraint holds: sum(w*eb) = sum(w)*eb_avg.
        assert np.sum(weights * ebs) == pytest.approx(weights.sum() * 0.5, rel=1e-6)

    def test_bitrate_never_worse_than_static(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            coeffs = np.exp(rng.normal(0, 1.0, 32))
            c = rng.uniform(-1.2, -0.3)
            ebs = optimal_error_bounds(coeffs, 1.0, c)
            adaptive = np.mean(coeffs * ebs**c)
            static = np.mean(coeffs * 1.0**c)
            assert adaptive <= static * (1 + 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("clamp", [1.5, 4.0, 100.0])
    def test_water_level_is_the_clip_and_sum_bisection(self, n, clamp):
        """The bisection runs on bare ufuncs over one buffer; the bounds
        are those of ``np.sum(w * np.clip(k * base, lo, hi))`` bit for
        bit."""
        rng = np.random.default_rng(n)
        coeffs = rng.lognormal(0, 2, n)
        weights = rng.lognormal(0, 1, n)
        c, eb_avg = -1.3, 0.3
        base = (coeffs / weights) ** (1.0 / (1.0 - c))
        target = float(np.sum(weights)) * eb_avg
        lo, hi = eb_avg / clamp, eb_avg * clamp
        k_lo, k_hi = lo / float(base.max()), hi / float(base.min())
        for _ in range(64):
            k = 0.5 * (k_lo + k_hi)
            if float(np.sum(weights * np.clip(k * base, lo, hi))) < target:
                k_lo = k
            else:
                k_hi = k
        expected = np.clip(0.5 * (k_lo + k_hi) * base, lo, hi)
        free = (expected > lo) & (expected < hi)
        if free.any():
            deficit = target - float(np.sum(weights[~free] * expected[~free]))
            scale = deficit / float(np.sum(weights[free] * expected[free]))
            expected[free] = np.clip(expected[free] * scale, lo, hi)
        got = optimal_error_bounds(coeffs, eb_avg, c, weights=weights, clamp_factor=clamp)
        assert got.tobytes() == expected.tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="coefficients"):
            optimal_error_bounds(np.array([]), 1.0, -0.5)
        with pytest.raises(ValueError, match="positive"):
            optimal_error_bounds(np.array([1.0, -1.0]), 1.0, -0.5)
        with pytest.raises(ValueError, match="exponent"):
            optimal_error_bounds(np.ones(2), 1.0, 0.5)
        with pytest.raises(ValueError, match="clamp_factor"):
            optimal_error_bounds(np.ones(2), 1.0, -0.5, clamp_factor=0.5)

    def test_simultaneous_lo_hi_clamping_keeps_constraint(self):
        """Pinned regression: one dominant coefficient pushes the
        proportional seed above the clamp ceiling while every other
        partition lands below the floor.  An iterative clamp-and-rescale
        water-fill sees "everything clamped" and freezes at mean 0.875,
        silently under-using the budget; the bisection water-fill must
        raise the small partitions off the floor instead."""
        coeffs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 40.0])
        ebs = optimal_error_bounds(coeffs, 1.0, -0.25, clamp_factor=4.0)
        assert ebs.mean() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(ebs, [0.4, 0.4, 0.4, 0.4, 0.4, 4.0], rtol=1e-12)

    def test_simultaneous_lo_hi_clamping_rms(self):
        """Same pathological input class under the quadratic constraint."""
        coeffs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 40.0])
        ebs = optimal_error_bounds(
            coeffs, 1.0, -0.25, clamp_factor=4.0, constraint="rms"
        )
        assert np.sqrt((ebs**2).mean()) == pytest.approx(1.0, rel=1e-12)
        assert (ebs >= 0.25 - 1e-12).all() and (ebs <= 4.0 + 1e-12).all()
        assert ebs[:5].min() > 0.25  # floor entries lifted, not frozen

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=50),
        st.floats(-1.5, -0.1),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_constraint_and_clamp_properties(self, coeffs, c, eb_avg):
        coeffs = np.array(coeffs)
        ebs = optimal_error_bounds(coeffs, eb_avg, c, clamp_factor=4.0)
        assert (ebs >= eb_avg / 4.0 - 1e-9).all()
        assert (ebs <= eb_avg * 4.0 + 1e-9).all()
        # Mean constraint holds whenever it is feasible inside the clamp
        # box (it always is, since eb_avg itself is feasible).
        assert ebs.mean() == pytest.approx(eb_avg, rel=1e-6)
