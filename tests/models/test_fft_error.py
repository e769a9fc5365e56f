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
        real = fft_error._distortion

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # The arithmetic both the public prediction and the inversion run.
        monkeypatch.setattr(fft_error, "_distortion", counting)
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


#: ``(z, field, (tolerance 0.01 / k < 10, tolerance 0.05 / k < 6 with
#: correlated fraction 0.5, derive_eb_budget at the default spec))`` as
#: ``float.hex``, from the inversion before its sub-threshold power was
#: memoised by count and its validation hoisted out of the bisection.
BUDGET_PINS = [
    (1.0, 'baryon_density', ('0x1.078c6a0000000p-2', '0x1.10637c450df1ap-2', '0x1.078c6a0000000p-2')),
    (1.0, 'dark_matter_density', ('0x1.4ce8660000000p-2', '0x1.48e12e0000000p-2', '0x1.4ce8660000000p-2')),
    (1.0, 'temperature', ('0x1.8b05cb69fd9c9p+10', '0x1.a34e4d5e1ca8bp+10', '0x1.8b05cb69fd9c9p+10')),
    (1.0, 'velocity_x', ('0x1.9063667883534p+19', '0x1.834eea900f0dbp+20', '0x1.9063667883534p+19')),
    (1.0, 'velocity_y', ('0x1.91bd124aa826cp+19', '0x1.913522a0a729cp+20', '0x1.91bd124aa826cp+19')),
    (1.0, 'velocity_z', ('0x1.d7b85e7a2846fp+19', '0x1.be9a4314c16adp+20', '0x1.d7b85e7a2846fp+19')),
    (0.3, 'baryon_density', ('0x1.0385180000000p-1', '0x1.fde197543b4f8p-2', '0x1.0385180000000p-1')),
    (0.3, 'dark_matter_density', ('0x1.f3f5a691400cdp-2', '0x1.66a574b70567ep-1', '0x1.f3f5a691400cdp-2')),
    (0.3, 'temperature', ('0x1.b72be8aa0e62ap+10', '0x1.d1f3ae0000000p+10', '0x1.b72be8aa0e62ap+10')),
    (0.3, 'velocity_x', ('0x1.19011482a8fd1p+20', '0x1.0fd3040e33473p+21', '0x1.19011482a8fd1p+20')),
    (0.3, 'velocity_y', ('0x1.19f3ae980a1c2p+20', '0x1.19944736862d5p+21', '0x1.19f3ae980a1c2p+20')),
    (0.3, 'velocity_z', ('0x1.4b11299d9b93fp+20', '0x1.3970533e702d8p+21', '0x1.4b11299d9b93fp+20')),
]


class TestInversionPins:
    """The budget inversion keeps its bits: same bisection, same float
    operations in the same order, a memoised mean only where the set of
    cells below the bound is the same."""

    def test_bounds_equal_their_pins(self):
        from repro.core.config import FieldSpec
        from repro.core.selection import derive_eb_budget
        from repro.foresight.evaluator import FieldReference
        from repro.models.fft_error import SUB_POWER_STRIDE, sub_threshold_power_curve
        from repro.sim.nyx import NyxSimulator

        sim = NyxSimulator(shape=(32, 32, 32), seed=5)
        got = []
        for z in (1.0, 0.3):
            snap = sim.snapshot(z=z)
            for name in sorted(snap.fields):
                f64 = snap[name].astype(np.float64)
                ps = power_spectrum(f64)
                curve = sub_threshold_power_curve(f64, stride=SUB_POWER_STRIDE)
                row = [
                    spectrum_ratio_tolerance_to_eb(
                        ps, f64.size, tolerance=tol, k_max=k_max,
                        sub_power_fn=curve, correlated_fraction=corr,
                    ).hex()
                    for tol, k_max, corr in ((0.01, 10, 0.0), (0.05, 6, 0.5))
                ]
                row.append(derive_eb_budget(FieldSpec(), FieldReference(snap[name])).hex())
                got.append((z, name, tuple(row)))
        assert got == BUDGET_PINS

    def test_memoised_curve_equals_the_mean_at_every_bound(self, snapshot):
        from repro.models.fft_error import sub_threshold_power_curve

        data = snapshot["baryon_density"].astype(np.float64)
        curve = sub_threshold_power_curve(data, stride=2)
        sub = data[::2, ::2, ::2]
        # Revisited bounds and bounds that move no cell hit the memo.
        for eb in (0.5, 0.01, 0.5, 0.5000001, 2.0, 0.01, 1e-12, 1e9):
            want = float(np.mean(np.where(np.abs(sub) < eb, sub**2, 0.0)))
            assert curve(eb) == want


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
