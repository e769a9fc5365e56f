"""The in situ adaptive pipeline end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import StaticBaseline
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.calibration import calibrate_rate_model


@pytest.fixture(scope="module")
def calibrated(request):
    snapshot = request.getfixturevalue("snapshot")
    decomposition = request.getfixturevalue("decomposition")
    views = decomposition.partition_views(snapshot["baryon_density"])
    return calibrate_rate_model(views, eb_scale=0.2, seed=0)


class TestRun:
    def test_produces_block_per_partition(self, snapshot, decomposition, calibrated):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert len(res.blocks) == decomposition.n_partitions
        assert res.ebs.shape == (decomposition.n_partitions,)

    def test_error_bounds_respected_per_partition(
        self, snapshot, decomposition, calibrated
    ):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        from repro.compression.sz import decompress

        for p, block, eb in zip(decomposition, res.blocks, res.ebs):
            recon = decompress(block)
            orig = p.view(snapshot["baryon_density"]).astype(np.float64)
            assert np.max(np.abs(recon - orig)) <= eb + 1e-9

    def test_reconstruct_assembles_global_field(
        self, snapshot, decomposition, calibrated
    ):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        recon = res.reconstruct(decomposition)
        assert recon.shape == snapshot.shape
        assert np.max(np.abs(recon - snapshot["baryon_density"])) <= res.ebs.max() + 1e-9

    def test_average_bound_maintained(self, snapshot, decomposition, calibrated):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert res.ebs.mean() == pytest.approx(0.2, rel=1e-6)

    def test_ratio_not_worse_than_static(self, snapshot, decomposition, calibrated):
        """The core claim at equal average bound (redistribution gain >= 0)."""
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(data, decomposition, eb_avg=0.2)
        static = StaticBaseline().run(data, decomposition, 0.2)
        assert res.overall_ratio >= static.overall_ratio * 0.97

    def test_halo_spec_activates_combined_path(
        self, snapshot, decomposition, calibrated
    ):
        data = snapshot["baryon_density"].astype(np.float64)
        tb = float(np.percentile(data, 99.0))
        halo = HaloQualitySpec(t_boundary=tb, mass_budget=1.0, reference_eb=0.5)
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2, halo=halo)
        assert res.optimization.constraint == "combined"
        assert res.features[0].effective_cell_rate is not None

    def test_timings_recorded(self, snapshot, decomposition, calibrated):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert set(res.timings.totals) >= {"features", "optimize", "compress"}
        assert res.timings.totals["compress"] > 0

    def test_eb_map_shape(self, snapshot, decomposition, calibrated):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert res.eb_map(decomposition).shape == decomposition.blocks


@pytest.fixture(scope="module")
def process_pipe(request):
    """A pipeline on a two-worker pool; its results are compared with a
    separately built default (serial) pipeline's."""
    calibrated = request.getfixturevalue("calibrated")
    with AdaptiveCompressionPipeline(calibrated.rate_model, backend="process") as pipe:
        yield pipe


class TestSpmdEquivalence:
    """``run`` runs on the backend chosen at construction (the default is
    serial), and both backends give the same bounds and bytes."""

    def test_spmd_matches_serial_exact_mode(
        self, snapshot, decomposition, calibrated, process_pipe
    ):
        data = snapshot["baryon_density"]
        serial = AdaptiveCompressionPipeline(calibrated.rate_model).run(
            data, decomposition, eb_avg=0.2
        )
        spmd = process_pipe.run(data, decomposition, eb_avg=0.2)
        assert np.array_equal(spmd.ebs, serial.ebs)
        assert [b.payloads for b in spmd.blocks] == [b.payloads for b in serial.blocks]

    def test_spmd_with_halo(self, snapshot, decomposition, calibrated, process_pipe):
        data = snapshot["baryon_density"]
        tb = float(np.percentile(data.astype(np.float64), 99.0))
        halo = HaloQualitySpec(t_boundary=tb, mass_budget=100.0, reference_eb=0.5)
        serial = AdaptiveCompressionPipeline(calibrated.rate_model).run(
            data, decomposition, eb_avg=0.2, halo=halo
        )
        spmd = process_pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        assert np.array_equal(spmd.ebs, serial.ebs)

    def test_spmd_timings_populated(self, snapshot, decomposition, process_pipe):
        """Regression: the SPMD path used to return empty timings."""
        res = process_pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert set(res.timings.totals) >= {"scatter", "features", "optimize", "compress"}
        assert res.timings.totals["compress"] > 0

    def test_spmd_returns_rank0_optimization(self, snapshot, decomposition, process_pipe):
        """Regression: the SPMD path used to re-solve the optimization
        instead of returning the result its bounds came from."""
        res = process_pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert res.optimization is not None
        assert np.array_equal(res.optimization.ebs, res.ebs)

    def test_spmd_local_protocol_close(self, snapshot, decomposition, calibrated):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(
            calibrated.rate_model, settings=OptimizerSettings(normalization="local")
        )
        spmd = pipe.run(data, decomposition, eb_avg=0.2)
        assert spmd.ebs.mean() == pytest.approx(0.2, rel=0.25)

    def test_backend_argument_accepts_names(self, snapshot, decomposition, calibrated):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model, backend="serial")
        assert pipe.backend.name == "serial"
        via_serial = pipe.run(data, decomposition, eb_avg=0.2)
        with AdaptiveCompressionPipeline(
            calibrated.rate_model, backend="process"
        ) as pooled:
            assert pooled.backend.name == "process"
            via_process = pooled.run(data, decomposition, eb_avg=0.2)
        assert np.array_equal(via_serial.ebs, via_process.ebs)
