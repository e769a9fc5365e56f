"""Configuration dataclass validation."""

from __future__ import annotations

import pytest

from repro.core.config import FieldSpec, HaloQualitySpec, OptimizerSettings


class TestOptimizerSettings:
    def test_paper_defaults(self):
        s = OptimizerSettings()
        assert s.clamp_factor == 4.0
        assert s.normalization == "exact"
        assert s.constraint_mode == "paper"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clamp_factor": 0.5},
            {"normalization": "global"},
            {"constraint_mode": "l2"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerSettings(**kwargs)


class TestHaloQualitySpec:
    def test_valid(self):
        h = HaloQualitySpec(t_boundary=88.0, mass_budget=100.0)
        assert h.reference_eb == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_boundary": 0.0, "mass_budget": 1.0},
            {"t_boundary": 1.0, "mass_budget": 0.0},
            {"t_boundary": 1.0, "mass_budget": 1.0, "reference_eb": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HaloQualitySpec(**kwargs)


class TestFieldSpec:
    def test_defaults_valid(self):
        FieldSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spectrum_tolerance": 0.0},
            {"correlated_fraction": 2.0},
            {"halo_percentile": 10.0},
            {"eb_override": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FieldSpec(**kwargs)
