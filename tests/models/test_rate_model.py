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


#: Bounds :func:`optimal_error_bounds` returns for ``COEFFS`` at
#: ``eb_avg=0.25``, ``exponent=-0.8``, as ``float.hex``: one water-fill
#: serves the mean, the halo-weighted mean and the rms constraint, and
#: each must keep these bits.  Cases are ``(constraint, weights,
#: clamp_factor, bounds)``; each comment counts the clamped entries.
COEFFS = [0.3, 1.7, 2.2, 5.0, 0.05, 9.1, 3.3, 0.8]
WEIGHTS = {
    None: None,
    "halo": [0.5, 0.25, 1.0, 0.5, 0.125, 2.0, 0.75, 1.5],
    # A partition with no boundary cells: its weight is floored, not zero.
    "halo_empty": [0.0, 0.25, 1.0, 0.5, 0.125, 2.0, 0.75, 1.5],
}
WATERFILL_PINS = [
    # 0 at lo, 0 at hi
    ('mean', None, 100.0, [
        '0x1.55e7d5e9ad6ccp-4', '0x1.c01dffce21945p-3', '0x1.029090b6ba2e0p-2',
        '0x1.97fdd19c8c73fp-2', '0x1.f96dc45256677p-6', '0x1.1c83d8848d67cp-1',
        '0x1.43e3e013a97ebp-2', '0x1.26cc75d2a7081p-3',
    ]),
    # 2 at lo, 1 at hi
    ('mean', None, 2.0, [
        '0x1.0000000000000p-3', '0x1.a52aea3ca0337p-3', '0x1.e6078dbf9a023p-3',
        '0x1.7f747f99d56cap-2', '0x1.0000000000000p-3', '0x1.0000000000000p-1',
        '0x1.30695aee22a3ep-2', '0x1.1511d2f3d5a9cp-3',
    ]),
    # 8 at lo, 8 at hi
    ('mean', None, 1.0, [
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2',
    ]),
    # 0 at lo, 0 at hi
    ('mean', 'halo', 100.0, [
        '0x1.ac24f9acd4b24p-4', '0x1.9c5e1d1f5add0p-2', '0x1.b89995cae9453p-3',
        '0x1.fee62e204fa4fp-2', '0x1.55cabd08863d4p-4', '0x1.49de76cd033efp-2',
        '0x1.43c84fb05907bp-2', '0x1.910696110cbf9p-4',
    ]),
    # 3 at lo, 0 at hi
    ('mean', 'halo', 2.0, [
        '0x1.0000000000000p-3', '0x1.8c629cfafe2f0p-2', '0x1.a785f6dfbfbe4p-3',
        '0x1.eb190d79b58c4p-2', '0x1.0000000000000p-3', '0x1.3d15834151320p-2',
        '0x1.373bc017d9e3ep-2', '0x1.0000000000000p-3',
    ]),
    # 0 at lo, 1 at hi
    ('mean', 'halo_empty', 100.0, [
        '0x1.9000000000000p+4', '0x1.89aac8810235fp-2', '0x1.a49e7ebf5e6c9p-3',
        '0x1.e7baf5db8bc53p-2', '0x1.464abf5a70f41p-4', '0x1.3ae8e41e68548p-2',
        '0x1.3519662fdef6dp-2', '0x1.7ed6ed96bc1cap-4',
    ]),
    # 8 at lo, 8 at hi
    ('mean', 'halo', 1.0, [
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2',
    ]),
    # 0 at lo, 0 at hi
    ('rms', None, 100.0, [
        '0x1.e7306928add20p-4', '0x1.c4993b28647e8p-3', '0x1.f040f5483b4afp-3',
        '0x1.4cab396035c09p-2', '0x1.00e9c70118645p-4', '0x1.9bff67cc2db40p-2',
        '0x1.1eca292400851p-2', '0x1.59c78e5740136p-3',
    ]),
    # 2 at lo, 0 at hi
    ('rms', None, 2.0, [
        '0x1.0000000000000p-3', '0x1.be5f405da64c0p-3', '0x1.e96d3b5e73023p-3',
        '0x1.48179e22f03f1p-2', '0x1.0000000000000p-3', '0x1.96546a652e7b5p-2',
        '0x1.1ad8222252c02p-2', '0x1.5505c6a350bc5p-3',
    ]),
    # 3 at lo, 2 at hi
    ('rms', None, 1.25, [
        '0x1.999999999999ap-3', '0x1.c302399ca429ap-3', '0x1.ee82b1cbd22fep-3',
        '0x1.4000000000000p-2', '0x1.999999999999ap-3', '0x1.4000000000000p-2',
        '0x1.1dc842c251d10p-2', '0x1.999999999999ap-3',
    ]),
    # 8 at lo, 8 at hi
    ('rms', None, 1.0, [
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
        '0x1.0000000000000p-2', '0x1.0000000000000p-2',
    ]),
]


class TestWaterfillPins:
    @pytest.mark.parametrize(
        "constraint, weights, clamp, want",
        WATERFILL_PINS,
        ids=[f"{c}-{w}-{k}" for c, w, k, _ in WATERFILL_PINS],
    )
    def test_bounds_are_bit_identical(self, constraint, weights, clamp, want):
        ebs = optimal_error_bounds(
            np.array(COEFFS), 0.25, -0.8,
            weights=None if weights is None else np.array(WEIGHTS[weights]),
            clamp_factor=clamp,
            constraint=constraint,
        )
        assert [float(x).hex() for x in ebs] == want

    def test_no_iteration_count(self):
        with pytest.raises(TypeError, match="max_iterations"):
            optimal_error_bounds(np.array(COEFFS), 0.25, -0.8, max_iterations=100)
