"""SZ error-distribution models vs the real compressor (Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.api import CompressorSpec, resolve_compressor
from repro.compression.sz import SZCompressor
from repro.models.error_distribution import (
    RevisedUniformErrorModel,
    UniformErrorModel,
    empirical_error_model,
)


class TestUniformModel:
    def test_std_factor(self):
        assert UniformErrorModel().std_factor == pytest.approx(np.sqrt(1 / 3))

    def test_std_scales_with_eb(self):
        m = UniformErrorModel()
        assert m.std(2.0) == pytest.approx(2 * m.std(1.0))

    def test_fault_probability_quarter(self):
        assert UniformErrorModel().fault_probability() == 0.25

    def test_samples_bounded_and_flat(self):
        rng = np.random.default_rng(0)
        s = UniformErrorModel().sample(0.5, 100_000, rng)
        assert np.abs(s).max() <= 0.5
        assert s.std() == pytest.approx(0.5 / np.sqrt(3), rel=0.02)


class TestRevisedModel:
    def test_std_below_uniform(self):
        """Mixing in the narrower normal component reduces the spread."""
        m = RevisedUniformErrorModel(normal_weight=0.5, normal_sigma_factor=0.3)
        assert m.std_factor < UniformErrorModel().std_factor

    def test_zero_weight_recovers_uniform(self):
        m = RevisedUniformErrorModel(normal_weight=0.0)
        assert m.std_factor == pytest.approx(UniformErrorModel().std_factor)
        assert m.fault_probability() == pytest.approx(0.25, abs=1e-6)

    def test_samples_bounded(self):
        rng = np.random.default_rng(1)
        m = RevisedUniformErrorModel()
        s = m.sample(1.0, 50_000, rng)
        assert np.abs(s).max() <= 1.0
        assert s.std() == pytest.approx(m.std_factor, rel=0.03)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="normal_weight"):
            RevisedUniformErrorModel(normal_weight=1.5)


class TestAgainstRealCompressor:
    def test_error_is_uniform_like(self, snapshot):
        """Fig. 3: SZ error over the temperature field ~ U[-eb, eb]."""
        data = snapshot["temperature"].astype(np.float64)
        eb = 10.0
        comp = SZCompressor()
        recon = comp.decompress(comp.compress(data, eb))
        mean, std = empirical_error_model(data, recon, eb)
        assert abs(mean) < 0.05
        assert std == pytest.approx(np.sqrt(1 / 3), rel=0.10)

    def test_error_histogram_flat(self, snapshot):
        data = snapshot["temperature"].astype(np.float64)
        eb = 10.0
        comp = SZCompressor()
        recon = comp.decompress(comp.compress(data, eb))
        err = (recon - data) / eb
        counts, _ = np.histogram(err, bins=10, range=(-1, 1))
        # Every decile occupied, none dominating (uniform within 2x).
        assert counts.min() > 0
        assert counts.max() / counts.min() < 2.0

    def test_classic_engine_also_uniform(self, snapshot):
        """§3.2: CPU-SZ and GPU-SZ orderings share the uniform error law."""
        data = snapshot["temperature"].astype(np.float64)[:10, :10, :10]
        eb = 10.0
        comp = resolve_compressor(CompressorSpec.sz(engine="classic"))
        recon = comp.decompress(comp.compress(data, eb))
        _, std = empirical_error_model(data, recon, eb)
        assert std == pytest.approx(np.sqrt(1 / 3), rel=0.25)
