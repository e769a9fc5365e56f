"""Growth factor and power-spectrum shape sanity."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.sim.cosmology import (
    Cosmology,
    bbks_transfer,
    growth_factor,
    matter_power_spectrum,
)
from repro.sim.grf import wavenumber_grid


class TestCosmology:
    def test_defaults_valid(self):
        c = Cosmology()
        assert 0 < c.omega_m <= 1

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError, match="omega_m"):
            Cosmology(omega_m=0.0)
        with pytest.raises(ValueError, match="omega_m"):
            Cosmology(omega_m=1.5)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError, match="h must"):
            Cosmology(h=-1.0)


class TestGrowthFactor:
    def test_normalized_at_z0(self):
        assert growth_factor(0.0) == pytest.approx(1.0)

    def test_monotonically_decreasing_in_z(self):
        z = np.linspace(0, 10, 30)
        d = growth_factor(z)
        assert (np.diff(d) < 0).all()

    def test_matter_domination_limit(self):
        """At high z the universe is matter dominated: D ~ 1/(1+z)."""
        d5 = growth_factor(5.0)
        d10 = growth_factor(10.0)
        assert d5 / d10 == pytest.approx(11.0 / 6.0, rel=0.05)

    def test_rejects_negative_z(self):
        with pytest.raises(ValueError, match="non-negative"):
            growth_factor(-0.5)

    def test_einstein_de_sitter(self):
        """omega_m = 1 gives exactly D = 1/(1+z)."""
        eds = Cosmology(omega_m=1.0, omega_l=0.0)
        assert growth_factor(3.0, eds) == pytest.approx(0.25, rel=1e-6)


class TestTransferFunction:
    def test_unity_at_large_scales(self):
        assert bbks_transfer(np.array([0.0]))[0] == 1.0
        assert bbks_transfer(np.array([1e-6]))[0] == pytest.approx(1.0, rel=1e-3)

    def test_monotonically_decreasing(self):
        k = np.logspace(-3, 2, 50)
        t = bbks_transfer(k)
        assert (np.diff(t) < 0).all()

    def test_small_scale_suppression(self):
        assert bbks_transfer(np.array([100.0]))[0] < 1e-3

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="non-negative"):
            bbks_transfer(np.array([-1.0]))


class TestPowerSpectrum:
    def test_positive(self):
        k = np.logspace(-2, 1, 20)
        assert (matter_power_spectrum(k) > 0).all()

    def test_turnover_exists(self):
        """P(k) rises at large scale, falls at small scale."""
        k = np.logspace(-3, 2, 200)
        p = matter_power_spectrum(k)
        peak = np.argmax(p)
        assert 0 < peak < len(k) - 1

    def test_redshift_scaling_is_growth_squared(self):
        k = np.array([0.1, 1.0])
        p0 = matter_power_spectrum(k, z=0.0)
        p2 = matter_power_spectrum(k, z=2.0)
        d = growth_factor(2.0)
        assert np.allclose(p2 / p0, d**2)

    def test_zero_mode_is_zero(self):
        assert matter_power_spectrum(np.array([0.0]))[0] == 0.0


class TestInPlaceEvaluation:
    """``bbks_transfer`` and ``matter_power_spectrum`` evaluate in place,
    in the order the written-out expressions evaluate."""

    @pytest.mark.parametrize(
        "cosmo, want_p, want_t",
        [
            (None, "87faba6820efcafc", "ebb06a04034adfae"),
            (Cosmology(omega_m=0.2, h=0.5, n_s=1.1), "2970bc65afe1222a", "d96de887776dd440"),
        ],
    )
    def test_bits_pinned(self, cosmo, want_p, want_t):
        """sha256 prefixes taken from the full-grid-temporary evaluation."""
        k = wavenumber_grid((24, 16, 10), 12.0)  # k = 0 included
        p = matter_power_spectrum(k, z=0.5, cosmo=cosmo, amplitude=2.5)
        assert hashlib.sha256(p.tobytes()).hexdigest()[:16] == want_p
        assert hashlib.sha256(bbks_transfer(k, cosmo).tobytes()).hexdigest()[:16] == want_t

    def test_zero_dimensional_input(self):
        assert float(bbks_transfer(0.0)) == 1.0
        assert float(matter_power_spectrum(np.array(0.0))) == 0.0
        assert float(matter_power_spectrum(0.5)) == matter_power_spectrum(np.array([0.5]))[0]

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
    def test_traced_memory_in_float64_grids(self):
        """On a 64^3 k grid, each peaks under 3.5 float64 grids above the
        grid, its output included (a full-grid temporary per
        sub-expression peaked at 6.1).  Allocation counts, not timings."""
        k = wavenumber_grid((64, 64, 64), 64.0)
        for fn in (bbks_transfer, matter_power_spectrum):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn(k)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak / k.nbytes < 3.5, fn.__name__
