"""Gaussian random field synthesis: statistics and determinism."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.spectrum import power_spectrum
from repro.sim.grf import gaussian_random_field, wavenumber_grid


class TestWavenumberGrid:
    def test_dc_mode_zero(self):
        k = wavenumber_grid((8, 8, 8), box_size=1.0)
        assert k[0, 0, 0] == 0.0

    def test_fundamental_mode(self):
        k = wavenumber_grid((8, 8, 8), box_size=2.0)
        assert k[1, 0, 0] == pytest.approx(2 * np.pi / 2.0)

    def test_symmetry(self):
        k = wavenumber_grid((8, 8, 8))
        assert k[1, 0, 0] == pytest.approx(k[7, 0, 0])

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError, match="box_size"):
            wavenumber_grid((4, 4, 4), box_size=0.0)

    @pytest.mark.parametrize(
        ("shape", "digest"),
        [
            ((8, 12, 16), "e6494fcc4fe491cec3324c915a0d925de7ebf5277c0caf797a214a982ff40e43"),
            ((5, 7), "69be9486cfdacb182717e2612b6818203161c24b03d96d433611ac32faee7c98"),
        ],
    )
    def test_pinned_values(self, shape, digest):
        """Summing the squared axes by broadcasting gives the values the
        full ``meshgrid`` construction gave, bit for bit."""
        k = wavenumber_grid(shape, box_size=3.0)
        assert k.shape == shape
        assert hashlib.sha256(k.tobytes()).hexdigest() == digest


class TestGRF:
    def test_zero_mean(self):
        f = gaussian_random_field((16, 16, 16), lambda k: np.ones_like(k), seed=0)
        assert abs(f.mean()) < 1e-12

    def test_target_sigma(self):
        f = gaussian_random_field(
            (16, 16, 16), lambda k: np.ones_like(k), seed=0, target_sigma=2.5
        )
        assert f.std() == pytest.approx(2.5)

    def test_deterministic(self):
        f1 = gaussian_random_field((8, 8, 8), lambda k: np.ones_like(k), seed=42)
        f2 = gaussian_random_field((8, 8, 8), lambda k: np.ones_like(k), seed=42)
        assert np.array_equal(f1, f2)

    def test_different_seeds_differ(self):
        f1 = gaussian_random_field((8, 8, 8), lambda k: np.ones_like(k), seed=1)
        f2 = gaussian_random_field((8, 8, 8), lambda k: np.ones_like(k), seed=2)
        assert not np.allclose(f1, f2)

    def test_phases_fixed_amplitude_scales(self):
        """Same seed, scaled spectrum: identical field up to amplitude."""
        pk1 = lambda k: np.ones_like(k)  # noqa: E731
        pk4 = lambda k: 4.0 * np.ones_like(k)  # noqa: E731
        f1 = gaussian_random_field((8, 8, 8), pk1, seed=9)
        f2 = gaussian_random_field((8, 8, 8), pk4, seed=9)
        assert np.allclose(f2, 2.0 * f1)

    def test_spectrum_shape_recovered(self):
        """A red spectrum should put most power at small k."""
        steep = lambda k: np.where(k > 0, np.maximum(k, 1e-9) ** -2.0, 0.0)  # noqa: E731
        f = gaussian_random_field((32, 32, 32), steep, seed=3, target_sigma=1.0)
        ps = power_spectrum(f)
        assert ps.power[0] > 10 * ps.power[8]

    def test_white_spectrum_is_flat(self):
        f = gaussian_random_field(
            (32, 32, 32), lambda k: np.ones_like(k), seed=4, target_sigma=1.0
        )
        ps = power_spectrum(f)
        # All bins should agree within mode-count noise.
        assert ps.power.max() / ps.power.min() < 2.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="non-negative"):
            gaussian_random_field((8, 8, 8), lambda k: -np.ones_like(k), seed=0)

    def test_rejects_2d_shape(self):
        with pytest.raises(ValueError, match="3-D"):
            gaussian_random_field((8, 8), lambda k: np.ones_like(k), seed=0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="target_sigma"):
            gaussian_random_field(
                (8, 8, 8), lambda k: np.ones_like(k), seed=0, target_sigma=-1.0
            )


def _ones(k):
    return np.ones_like(k)


class TestGRFOutput:
    #: sha256 of the field bytes, taken before the field became a
    #: contiguous copy of the transform buffer.
    PINS = [
        (
            lambda k: np.where(k > 0, 1.0 / np.maximum(k, 1e-30), 0.0),
            8.0,
            1.0,
            "9144cfdf148049cf9f48d5b4880fef266e1ec2a6e90bc1758788d479769cbe2c",
        ),
        (
            lambda k: k**2,
            1.0,
            None,
            "2b3fa6ab3d5248961c041baf10af78556cf4be936a96a68f207ae9b15475d967",
        ),
    ]

    @pytest.mark.parametrize(("pk", "box_size", "target_sigma", "digest"), PINS)
    def test_pinned_fields(self, pk, box_size, target_sigma, digest):
        f = gaussian_random_field(
            (8, 12, 16), pk, seed=3, box_size=box_size, target_sigma=target_sigma
        )
        assert hashlib.sha256(f.tobytes()).hexdigest() == digest

    def test_c_contiguous_float64(self):
        f = gaussian_random_field((8, 12, 16), _ones, seed=0, target_sigma=1.0)
        assert f.dtype == np.float64
        assert f.flags.c_contiguous and f.flags.owndata

    def test_valid_call_draws_one_grid_of_noise(self):
        """A shared generator moves on by exactly one grid of normals."""
        rng = np.random.default_rng(5)
        gaussian_random_field((8, 8, 8), _ones, seed=rng, target_sigma=2.0)
        ref = np.random.default_rng(5)
        ref.standard_normal((8, 8, 8))
        assert rng.random() == ref.random()


class TestGRFRefusals:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gaussian_random_field(
                (8, 8, 8), lambda k: np.where(k > 3, bad, 1.0), seed=0
            )

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(target_sigma=0.0), "target_sigma"),
            (dict(target_sigma=-1.0), "target_sigma"),
            (dict(power_spectrum=lambda k: np.where(k > 3, np.nan, 1.0)), "finite"),
            (dict(power_spectrum=lambda k: -np.ones_like(k)), "non-negative"),
            (dict(power_spectrum=lambda k: np.ones(3)), "matching"),
            (dict(box_size=0.0), "box_size"),
        ],
    )
    def test_refusal_leaves_generator_untouched(self, kwargs, match):
        """Every argument is checked before the noise is drawn."""
        rng = np.random.default_rng(11)
        call = dict(power_spectrum=_ones, seed=rng) | kwargs
        with pytest.raises(ValueError, match=match):
            gaussian_random_field((8, 8, 8), **call)
        assert rng.random() == np.random.default_rng(11).random()
