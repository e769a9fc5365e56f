"""Power spectrum: known-signal checks, Parseval, quality criterion."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis.spectrum import (
    check_spectrum_quality,
    power_spectrum,
    spectrum_ratio,
)


def _plane_wave(n: int, k: int) -> np.ndarray:
    x = np.arange(n)
    return np.cos(2 * np.pi * k * x / n)[:, None, None] * np.ones((1, n, n))


class TestPowerSpectrum:
    def test_plane_wave_peaks_at_right_bin(self):
        f = _plane_wave(32, 5)
        ps = power_spectrum(f)
        assert ps.k[np.argmax(ps.power)] == 5

    def test_parseval(self):
        """Total binned power equals the field variance (all modes kept)."""
        rng = np.random.default_rng(0)
        f = rng.normal(0, 1, (16, 16, 16))
        ps = power_spectrum(f, nbins=8)
        # Within the binned range; modes beyond the 1-D Nyquist ball are
        # excluded, so compare against the power inside those bins.
        total_binned = float((ps.power * ps.n_modes).sum())
        fk = np.fft.fftn(f - f.mean())
        kx = np.fft.fftfreq(16) * 16
        kk = np.sqrt(
            kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
        )
        mask = (np.rint(kk) >= 1) & (np.rint(kk) <= 8)
        expected = float((np.abs(fk[mask]) ** 2).sum() / f.size)
        assert total_binned == pytest.approx(expected, rel=1e-10)

    def test_mode_counts_sum(self):
        ps = power_spectrum(np.random.default_rng(1).normal(0, 1, (16, 16, 16)))
        assert (ps.n_modes > 0).all()
        # k=1 bin has the 6 axis modes plus nothing else at integer radius 1.
        assert ps.n_modes[0] >= 6

    def test_amplitude_scaling(self):
        f = np.random.default_rng(2).normal(0, 1, (16, 16, 16))
        p1 = power_spectrum(f).power
        p2 = power_spectrum(3.0 * f).power
        assert np.allclose(p2, 9.0 * p1)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            power_spectrum(np.zeros((8, 8)))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="too small"):
            power_spectrum(np.random.default_rng(0).normal(0, 1, (2, 2, 2)), nbins=0)


class TestSpectrumRatio:
    def test_identity_is_one(self):
        f = np.random.default_rng(3).normal(0, 1, (16, 16, 16))
        _, ratio = spectrum_ratio(f, f.copy())
        assert np.allclose(ratio, 1.0)

    def test_white_noise_raises_ratio(self):
        rng = np.random.default_rng(4)
        f = rng.normal(0, 1, (16, 16, 16))
        noisy = f + rng.normal(0, 0.5, f.shape)
        _, ratio = spectrum_ratio(f, noisy)
        assert ratio.mean() > 1.0


class TestQualityCheck:
    def test_identical_passes(self):
        f = np.random.default_rng(5).normal(0, 1, (16, 16, 16))
        ok, worst = check_spectrum_quality(f, f.copy())
        assert ok and worst == 0.0

    def test_distorted_fails(self):
        rng = np.random.default_rng(6)
        f = rng.normal(0, 1, (16, 16, 16))
        ok, worst = check_spectrum_quality(f, f + rng.normal(0, 1.0, f.shape))
        assert not ok and worst > 0.01

    def test_tolerance_parameter(self):
        rng = np.random.default_rng(7)
        f = rng.normal(0, 1, (16, 16, 16))
        noisy = f + rng.normal(0, 0.05, f.shape)
        _, worst = check_spectrum_quality(f, noisy)
        ok_loose, _ = check_spectrum_quality(f, noisy, tolerance=10 * worst)
        assert ok_loose

    def test_rejects_bad_tolerance(self):
        f = np.zeros((8, 8, 8))
        with pytest.raises(ValueError, match="tolerance"):
            check_spectrum_quality(f, f, tolerance=0.0)

    def test_rejects_unreachable_kmax(self):
        f = np.random.default_rng(8).normal(0, 1, (8, 8, 8))
        with pytest.raises(ValueError, match="k_max"):
            check_spectrum_quality(f, f, k_max=1)


class TestNoFullGridCaches:
    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
    def test_no_cache_holds_a_full_rfft_grid(self):
        """Spectra at several ``nbins``, through both transforms, leave
        less behind than one int64 array of the full rfft grid (the
        per-shape mode caches kept two such arrays); what stays is the
        pruned DFT's operands, O(n * nbins) each."""
        from repro.analysis.spectrum import fft_spectrum

        shape = (64, 48, 40)
        field = np.random.default_rng(9).normal(0, 1, shape)
        rfft_grid_bytes = 8 * shape[0] * shape[1] * (shape[2] // 2 + 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for nbins in (None, 2, 5, 9, 16, 20):
                power_spectrum(field, nbins)
                fft_spectrum(field, nbins)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < rfft_grid_bytes

    def test_spectrum_matches_a_from_scratch_fftn(self):
        rng = np.random.default_rng(9)
        f = rng.normal(0, 1, (12, 12, 12))
        ps = power_spectrum(f, nbins=6)
        fk = np.fft.fftn(f - f.mean())
        kx = np.fft.fftfreq(12) * 12
        kk = np.sqrt(
            kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kx[None, None, :] ** 2
        )
        bins = np.rint(kk).astype(np.int64)
        for i, k in enumerate(ps.k):
            sel = bins == k
            assert ps.power[i] == pytest.approx(
                float((np.abs(fk[sel]) ** 2).mean()) / f.size, rel=1e-10
            )


class TestCheckStopsAtKmax:
    def test_binning_stops_at_k_max(self, monkeypatch):
        """Both spectra are binned only to k_max, not to Nyquist."""
        import repro.analysis.spectrum as spectrum_mod

        seen = []
        real = spectrum_mod.power_spectrum

        def recording(field, nbins=None):
            seen.append(nbins)
            return real(field, nbins=nbins)

        monkeypatch.setattr(spectrum_mod, "power_spectrum", recording)
        rng = np.random.default_rng(4)
        f = rng.normal(0, 1, (32, 32, 32))
        check_spectrum_quality(f, f + rng.normal(0, 0.01, f.shape), k_max=10)
        # Bins 1..9 cover every inspected k < 10.
        assert seen == [9, 9]

    def test_worst_deviation_matches_full_binning(self):
        rng = np.random.default_rng(5)
        f = rng.normal(0, 1, (32, 32, 32))
        g = f + rng.normal(0, 0.05, f.shape)
        _, worst = check_spectrum_quality(f, g, tolerance=0.5, k_max=10)
        k, ratio = spectrum_ratio(f, g)  # full-Nyquist binning
        assert worst == float(np.max(np.abs(ratio[k < 10] - 1.0)))

    @pytest.mark.parametrize("n", [32, 48])
    @pytest.mark.parametrize("k_max", [2, 10, 40])
    def test_one_bin_rule_for_the_check_and_the_stream(self, n, k_max):
        """``check_spectrum_quality`` and the stream's ``spectrum_deviation``
        bin by the one rule, so they agree bit for bit — through the full
        ``rfftn`` (32^3 at k_max=10) and the pruned DFT (48^3 at k_max=10)."""
        from repro.analysis.spectrum import low_k_only, nbins_below
        from repro.foresight.evaluator import FieldReference, spectrum_deviation

        rng = np.random.default_rng(n + k_max)
        f = rng.normal(0, 1, (n, n, n))
        g = f + rng.normal(0, 0.05, f.shape)
        if k_max == 10:
            assert low_k_only(f.shape, nbins_below(k_max)) is (n == 48)
        _, worst = check_spectrum_quality(f, g, k_max=k_max)
        assert worst == spectrum_deviation(FieldReference(f), g, k_max)


def full_grid_spectrum(field: np.ndarray, nbins: int | None = None):
    """The binning as first written: square and weigh every mode of the
    full ``rfftn``, then mask the grid down to bins ``1..nbins``."""
    from repro.analysis.spectrum import PowerSpectrum

    arr = np.asarray(field, dtype=np.float64)
    arr = arr - arr.mean()
    fk = np.fft.rfftn(arr)
    kx = np.fft.fftfreq(arr.shape[0]) * arr.shape[0]
    ky = np.fft.fftfreq(arr.shape[1]) * arr.shape[1]
    kz = np.fft.rfftfreq(arr.shape[2]) * arr.shape[2]
    kk = np.sqrt(kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2)
    bins = np.rint(kk).astype(np.int64)
    # rfftn keeps half the kz modes: interior planes weigh 2.
    weights = np.full(fk.shape, 2.0)
    weights[..., 0] = 1.0
    if arr.shape[2] % 2 == 0:
        weights[..., -1] = 1.0
    kmax = min(s // 2 for s in arr.shape)
    nbins = kmax if nbins is None else min(nbins, kmax)
    power_flat = (np.abs(fk) ** 2 * weights).ravel()
    bins_flat = bins.ravel()
    keep = (bins_flat >= 1) & (bins_flat <= nbins)
    sums = np.bincount(bins_flat[keep], weights=power_flat[keep], minlength=nbins + 1)
    counts = np.bincount(bins_flat[keep], weights=weights.ravel()[keep], minlength=nbins + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_power = np.where(counts[1:] > 0, sums[1:] / counts[1:], 0.0)
    return PowerSpectrum(
        k=np.arange(1, nbins + 1),
        power=mean_power / arr.size,
        n_modes=counts[1:].astype(np.int64),
    )


SHAPES = [(16, 16, 16), (32, 32, 32), (15, 17, 19), (9, 9, 9), (24, 16, 10), (5, 40, 8), (40, 12, 64)]


def _assert_same_bits(got, want):
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.power, want.power)
    assert np.array_equal(got.n_modes, want.n_modes)


class TestFFTSpectrum:
    """``fft_spectrum`` transforms only the ``kz <= nbins`` planes of the
    ``rfftn`` and bins only bins ``1..nbins``; the result must equal
    masking the full grid, bit for bit."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_to_full_grid_masking_for_every_nbins(self, shape):
        from repro.analysis.spectrum import fft_spectrum

        rng = np.random.default_rng(sum(shape))
        field = np.exp(rng.normal(0, 1, shape))
        kmax = min(s // 2 for s in shape)
        for nbins in [None, *range(1, kmax + 3)]:
            _assert_same_bits(fft_spectrum(field, nbins), full_grid_spectrum(field, nbins))

    @pytest.mark.parametrize("nbins", [9, None])
    def test_equal_to_full_grid_masking_at_128(self, nbins):
        from repro.analysis.spectrum import fft_spectrum

        field = 50.0 + np.exp(np.random.default_rng(42).normal(0, 1, (128, 128, 128)))
        _assert_same_bits(fft_spectrum(field, nbins), full_grid_spectrum(field, nbins))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_rule_picks_it_at_and_past_min_shape_over_4(self, dtype):
        """Where :func:`low_k_only` fails, ``power_spectrum`` is
        ``fft_spectrum``; where it holds, the two agree to 1e-12."""
        from repro.analysis.spectrum import fft_spectrum, low_k_only

        field = np.random.default_rng(3).normal(0, 1, (16, 12, 20)).astype(dtype)
        for nbins in (None, 1, 3, 6):
            got, want = fft_spectrum(field, nbins), power_spectrum(field, nbins)
            assert np.array_equal(got.n_modes, want.n_modes)
            if low_k_only(field.shape, nbins):
                np.testing.assert_allclose(got.power, want.power, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(got.power, want.power)

    def test_input_untouched_and_errors_as_power_spectrum(self):
        from repro.analysis.spectrum import fft_spectrum

        field = np.random.default_rng(4).normal(0, 1, (10, 12, 14))
        before = field.copy()
        fft_spectrum(field, 3)
        assert np.array_equal(field, before)
        with pytest.raises(ValueError, match="3-D"):
            fft_spectrum(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="too small"):
            fft_spectrum(np.ones((16, 16, 16)), nbins=0)


class TestLowKTransform:
    """Below ``min(shape) / 4`` bins, ``power_spectrum`` transforms only
    the modes it bins (a pruned DFT); it must agree with binning the full
    ``rfftn`` to 1e-12 relative, on either side of the dispatch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_rfftn_binning_for_every_nbins(self, shape, dtype):
        from repro.analysis.spectrum import low_k_only

        rng = np.random.default_rng(sum(shape))
        # A large mean next to the fluctuations: the transform must remove
        # it before summing, as the rfftn path does.
        field = (50.0 + np.exp(rng.normal(0, 1, shape))).astype(dtype)
        kmax = min(s // 2 for s in shape)
        sides = set()
        for nbins in [None, *range(1, kmax + 3)]:
            got = power_spectrum(field, nbins=nbins)
            want = full_grid_spectrum(field.astype(np.float64), nbins)
            assert np.array_equal(got.k, want.k)
            assert np.array_equal(got.n_modes, want.n_modes)
            np.testing.assert_allclose(got.power, want.power, rtol=1e-12, atol=0)
            sides.add(low_k_only(shape, nbins))
        assert sides == {True, False}

    def test_mean_far_above_the_fluctuations(self):
        """A summed mean of 1e6 would leave ~1e-9 rounding in every
        mode; removed first, it leaves none."""
        from repro.analysis.spectrum import low_k_only

        field = 1e6 + np.random.default_rng(2).normal(0, 1, (40, 36, 48))
        assert low_k_only(field.shape, 9)
        got, want = power_spectrum(field, nbins=9), full_grid_spectrum(field, 9)
        np.testing.assert_allclose(got.power, want.power, rtol=1e-12, atol=0)

    def test_rule(self):
        from repro.analysis.spectrum import low_k_only

        assert low_k_only((64, 64, 64), 9) and low_k_only((36, 80, 40), 9)
        assert not low_k_only((35, 80, 40), 9)  # 4 * 9 > min(shape)
        assert not low_k_only((64, 64, 64), None)  # Nyquist: the full rfftn
        assert not low_k_only((64, 64, 64), 100)  # clamped to Nyquist
        assert low_k_only((64, 64, 64), 16) and not low_k_only((64, 64, 64), 17)

    @pytest.mark.parametrize(
        "shape, nbins", [((16, 16, 16), 0), ((64, 64, 64), -3), ((1, 8, 8), None), ((2, 2, 2), 0)]
    )
    def test_grid_too_small_still_raises(self, shape, nbins):
        from repro.analysis.spectrum import low_k_only

        with pytest.raises(ValueError, match="too small"):
            power_spectrum(np.ones(shape), nbins=nbins)
        with pytest.raises(ValueError, match="too small"):
            low_k_only(shape, nbins)

    def test_operands_cached_per_shape_and_nbins(self):
        from repro.analysis.spectrum import _low_k_transform

        op = _low_k_transform((16, 12, 20), 3)
        assert op is _low_k_transform((16, 12, 20), 3)
        assert op is not _low_k_transform((16, 12, 20), 2)
        assert op.tz.shape == (20, 8) and op.wx.shape == (7, 16) and op.wy.shape == (7, 12)
        for arr in (op.tz, op.wx, op.wy, op.modes.index):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_same_field_same_bits(self):
        """Reference and reconstruction take the same transform, so an
        unchanged field must reproduce its spectrum bit for bit."""
        field = np.random.default_rng(11).normal(0, 1, (40, 36, 48))
        a, b = power_spectrum(field, nbins=9), power_spectrum(field.copy(), nbins=9)
        assert np.array_equal(a.power, b.power)
