"""FFT error propagation model (Eqs. 4-10) against Monte Carlo truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.spectrum import power_spectrum, spectrum_ratio
from repro.models.fft_error import (
    dft_error_sigma,
    mixed_partition_sigma,
    predicted_spectrum_distortion,
    spectrum_ratio_tolerance_to_eb,
    sub_threshold_power_estimate,
)


class TestDftSigma:
    def test_eq8_formula(self):
        assert dft_error_sigma(1000, 0.5) == pytest.approx(np.sqrt(1000 / 6) * 0.5)

    def test_scales_sqrt_n(self):
        """The paper's observation: larger grids are less error-tolerant."""
        assert dft_error_sigma(8_000_000, 1.0) == pytest.approx(
            2.0 * dft_error_sigma(2_000_000, 1.0)
        )

    def test_monte_carlo_1d(self):
        """Inject U[-eb, eb] noise; DFT component std must match Eq. 8."""
        rng = np.random.default_rng(0)
        n, eb, trials = 4096, 1.0, 200
        reals = np.empty(trials)
        k = 17
        phase = np.exp(-2j * np.pi * k * np.arange(n) / n)
        for t in range(trials):
            noise = rng.uniform(-eb, eb, n)
            reals[t] = (noise * phase).sum().real
        assert reals.std() == pytest.approx(dft_error_sigma(n, eb), rel=0.15)

    def test_monte_carlo_3d(self):
        """Eq. 9 in 3-D with a full FFT."""
        rng = np.random.default_rng(1)
        shape = (16, 16, 16)
        eb = 0.7
        samples = []
        for _ in range(50):
            noise = rng.uniform(-eb, eb, shape)
            fk = np.fft.fftn(noise)
            samples.append(fk[3, 2, 1].real)
        expected = dft_error_sigma(int(np.prod(shape)), eb)
        assert np.std(samples) == pytest.approx(expected, rel=0.3)

    def test_custom_std_factor(self):
        """Revised error distributions plug in through std_factor (§3.5)."""
        narrower = dft_error_sigma(1000, 1.0, std_factor=0.3)
        assert narrower < dft_error_sigma(1000, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_elements"):
            dft_error_sigma(0, 1.0)
        with pytest.raises(ValueError, match="eb"):
            dft_error_sigma(10, -1.0)


class TestMixedPartitions:
    def test_equal_bounds_match_single(self):
        ebs = np.full(8, 0.5)
        assert mixed_partition_sigma(4096, ebs, "paper") == pytest.approx(
            dft_error_sigma(4096, 0.5)
        )
        assert mixed_partition_sigma(4096, ebs, "rms") == pytest.approx(
            dft_error_sigma(4096, 0.5)
        )

    def test_rms_exceeds_paper_for_spread_bounds(self):
        """Eq. 10's linear average slightly underestimates the exact RMS."""
        ebs = np.array([0.25, 0.25, 1.0, 1.0])
        assert mixed_partition_sigma(1000, ebs, "rms") > mixed_partition_sigma(
            1000, ebs, "paper"
        )

    def test_close_under_clamped_spread(self):
        """Within the optimizer's 4x clamp the two modes agree within ~15%."""
        rng = np.random.default_rng(2)
        ebs = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 512))
        paper = mixed_partition_sigma(10**6, ebs, "paper")
        rms = mixed_partition_sigma(10**6, ebs, "rms")
        assert rms / paper < 1.35

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mixed_partition_sigma(10, np.ones(2), "median")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            mixed_partition_sigma(10, np.array([0.5, -1.0]))


class TestSpectrumDistortion:
    def test_prediction_matches_injected_noise(self, snapshot):
        """End-to-end: predicted P(k) ratio bound covers the measured ratio."""
        data = snapshot["temperature"].astype(np.float64)
        eb = 5.0
        rng = np.random.default_rng(3)
        noisy = data + rng.uniform(-eb, eb, data.shape)
        ps = power_spectrum(data)
        k, ratio = spectrum_ratio(data, noisy)
        pred = predicted_spectrum_distortion(ps, data.size, eb, confidence_z=3.0)
        mask = ps.k < 10
        assert (np.abs(ratio[mask] - 1.0) <= pred[mask]).mean() >= 0.85

    def test_monotone_in_eb(self, snapshot):
        ps = power_spectrum(snapshot["temperature"].astype(np.float64))
        n = snapshot["temperature"].size
        d1 = predicted_spectrum_distortion(ps, n, 1.0).max()
        d2 = predicted_spectrum_distortion(ps, n, 2.0).max()
        assert d2 > d1

    def test_sub_threshold_term_increases_prediction(self, snapshot):
        ps = power_spectrum(snapshot["baryon_density"].astype(np.float64))
        n = snapshot["baryon_density"].size
        base = predicted_spectrum_distortion(ps, n, 0.5).max()
        corrected = predicted_spectrum_distortion(
            ps, n, 0.5, sub_threshold_power=0.1
        ).max()
        assert corrected > base


class TestToleranceInversion:
    def test_round_trips_through_prediction(self, snapshot):
        data = snapshot["temperature"].astype(np.float64)
        ps = power_spectrum(data)
        eb = spectrum_ratio_tolerance_to_eb(ps, data.size, tolerance=0.01, k_max=10)
        mask = ps.k < 10
        sub = type(ps)(k=ps.k[mask], power=ps.power[mask], n_modes=ps.n_modes[mask])
        worst = predicted_spectrum_distortion(sub, data.size, eb).max()
        assert worst == pytest.approx(0.01, rel=0.05)

    def test_tighter_tolerance_smaller_eb(self, snapshot):
        data = snapshot["temperature"].astype(np.float64)
        ps = power_spectrum(data)
        eb_tight = spectrum_ratio_tolerance_to_eb(ps, data.size, tolerance=0.001)
        eb_loose = spectrum_ratio_tolerance_to_eb(ps, data.size, tolerance=0.05)
        assert eb_tight < eb_loose

    def test_sub_power_fn_shrinks_budget(self, snapshot):
        data = snapshot["baryon_density"].astype(np.float64)
        ps = power_spectrum(data)
        plain = spectrum_ratio_tolerance_to_eb(ps, data.size, tolerance=0.02)
        corrected = spectrum_ratio_tolerance_to_eb(
            ps,
            data.size,
            tolerance=0.02,
            sub_power_fn=lambda eb: sub_threshold_power_estimate(data, eb, stride=2),
        )
        assert corrected <= plain

    def test_rejects_bad_tolerance(self, snapshot):
        ps = power_spectrum(snapshot["temperature"].astype(np.float64))
        with pytest.raises(ValueError, match="tolerance"):
            spectrum_ratio_tolerance_to_eb(ps, 100, tolerance=0.0)


def _eighty_step_inversion(spectrum, n_elements, tolerance, k_max, sub_power_fn, corr):
    """The inversion as it was before it stopped at its fixed point:
    always 80 bisection steps."""
    from repro.models import fft_error

    mask = spectrum.k < k_max
    sub = type(spectrum)(
        k=spectrum.k[mask], power=spectrum.power[mask], n_modes=spectrum.n_modes[mask]
    )

    def worst(eb):
        s = float(sub_power_fn(eb)) if sub_power_fn is not None else 0.0
        return float(
            fft_error.predicted_spectrum_distortion(
                sub, n_elements, eb, 2.0, sub_threshold_power=s, correlated_fraction=corr
            ).max()
        )

    lo, hi = 1e-12, 1.0
    while worst(hi) < tolerance and hi < 1e12:
        lo = hi
        hi *= 4.0
    assert worst(lo) <= tolerance
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        if worst(mid) <= tolerance:
            lo = mid
        else:
            hi = mid
    return float(lo)


class TestInversionStopsAtItsFixedPoint:
    """The bisection breaks once a step leaves ``(lo, hi)`` unchanged:
    the bound keeps its bits, in fewer than 80 steps."""

    @staticmethod
    def _spectra(snapshot):
        from repro.analysis.spectrum import PowerSpectrum

        k = np.arange(1.0, 24.0)
        yield power_spectrum(snapshot["temperature"].astype(np.float64))
        yield power_spectrum(snapshot["baryon_density"].astype(np.float64))
        for slope, amp in ((-1.0, 1e3), (-2.5, 50.0), (0.5, 1e-4)):
            yield PowerSpectrum(k=k, power=amp * k**slope, n_modes=np.rint(4 * np.pi * k**2))

    def test_equals_the_eighty_step_bisection(self, snapshot, monkeypatch):
        from repro.models import fft_error

        data = snapshot["baryon_density"].astype(np.float64)
        curve = fft_error.sub_threshold_power_curve(data)
        calls = []
        real = fft_error.predicted_spectrum_distortion

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fft_error, "predicted_spectrum_distortion", counting)
        cases = 0
        for ps in self._spectra(snapshot):
            for tolerance in (1e-3, 0.01, 0.2):
                for sub_fn in (None, curve, lambda eb: 1e-3 * eb**2):
                    for corr, k_max in ((0.0, 10), (0.4, 6)):
                        args = (ps, data.size, tolerance, k_max, sub_fn, corr)
                        calls.clear()
                        try:
                            want = _eighty_step_inversion(*args)
                        except AssertionError:
                            continue  # unachievable tolerance: nothing to bisect
                        n_reference = len(calls)
                        calls.clear()
                        got = spectrum_ratio_tolerance_to_eb(
                            ps, data.size, tolerance=tolerance, k_max=k_max,
                            sub_power_fn=sub_fn, correlated_fraction=corr,
                        )
                        assert got == want, args
                        # Same growth phase, then fewer than 80 steps.
                        assert len(calls) < n_reference
                        cases += 1
        assert cases >= 60


class TestSubThresholdEstimate:
    def test_zero_for_tiny_eb(self, snapshot):
        data = snapshot["baryon_density"].astype(np.float64)
        assert sub_threshold_power_estimate(data, 1e-12) == 0.0

    def test_grows_with_eb(self, snapshot):
        data = snapshot["baryon_density"].astype(np.float64)
        vals = [sub_threshold_power_estimate(data, eb) for eb in (0.01, 0.1, 1.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_saturates_at_field_power(self, snapshot):
        data = snapshot["baryon_density"].astype(np.float64)
        huge = sub_threshold_power_estimate(data, 1e9, stride=1)
        assert huge == pytest.approx(np.mean(data**2))
