"""The closed-form ratio-quality engine: predictions vs measurements.

Three property families pin the model down:

- predicted PSNR is monotonically non-increasing in the error bound
  (more allowed error can never *improve* predicted fidelity),
- predicted PSNR agrees with the measured PSNR of the real
  compress→decompress pipeline within the model's tolerance band,
  across dtypes and shapes,
- ``probe_mode="model"`` fails loudly (capability error) on compressors
  that cannot supply quantization statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.metrics import error_summary
from repro.compression.api import UnsupportedCapabilityError
from repro.compression.estimator import (
    RQEstimate,
    predicted_nrmse,
    predicted_psnr_db,
)
from repro.compression.sz import SZCompressor
from repro.core.config import FieldSpec
from repro.core.selection import derive_eb_budget, select_compressor
from repro.foresight.evaluator import FieldReference
from repro.foresight.quality import QualityCriteria, QualityReport
from repro.foresight.sweep import run_sweep
from repro.models.calibration import RateModelBank, calibrate_rate_model
from repro.models.rq_model import RQModel
from repro.parallel.decomposition import BlockDecomposition
from repro.stream.controller import InSituController


def _smooth_field(seed: int, shape=(16, 16, 16), dtype=np.float64) -> np.ndarray:
    """A compressible positive field: broad correlations + mild noise."""
    rng = np.random.default_rng(seed)
    base = rng.normal(1.0, 0.25, shape)
    k = np.ones((3,) * len(shape)) / 3 ** len(shape)
    try:
        from scipy.ndimage import convolve

        base = convolve(base, k, mode="wrap")
    except ImportError:  # pragma: no cover - scipy is a baked-in dep
        pass
    return (base + 2.0).astype(dtype)


class TestPredictionHelpers:
    def test_psnr_nrmse_degenerate(self):
        assert predicted_psnr_db(0.0, 1.0) == np.inf
        assert predicted_nrmse(0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            predicted_psnr_db(-1.0, 1.0)

    @given(
        mse=st.floats(0.0, 1.0),
        rng=st.floats(0.5, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_psnr_consistent_with_nrmse(self, mse, rng):
        psnr = predicted_psnr_db(mse, rng)
        nr = predicted_nrmse(mse, rng)
        if mse > 0:
            assert psnr == pytest.approx(-20.0 * np.log10(nr))


class TestRQEstimate:
    def test_estimate_returns_rq(self):
        data = _smooth_field(0)
        est = SZCompressor().estimate(data, 1e-3)
        assert isinstance(est, RQEstimate)
        assert est.predicted_psnr_db > 0
        assert 0 <= est.predicted_nrmse < 1
        assert est.eb == 1e-3

    def test_ladder_matches_estimate(self):
        comp = SZCompressor()
        views = [_smooth_field(s) for s in range(3)]
        ebs = [1e-3, 5e-3, 2e-2]
        ladder = comp.estimate_ladder(views, ebs)
        assert ladder == [[comp.estimate(v, eb) for v in views] for eb in ebs]

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_predicted_psnr_monotone_in_eb(self, seed):
        """More allowed error never improves predicted fidelity."""
        data = _smooth_field(seed)
        comp = SZCompressor()
        ebs = [1e-4, 1e-3, 1e-2, 1e-1]
        psnrs = [rung[0].predicted_psnr_db for rung in comp.estimate_ladder([data], ebs)]
        assert all(a >= b for a, b in zip(psnrs, psnrs[1:]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4096,), (64, 64), (16, 16, 16)])
    def test_predicted_matches_measured_psnr(self, dtype, shape):
        """The uniform-error model lands within ~1 dB of measurement."""
        data = _smooth_field(7, shape=shape, dtype=dtype)
        comp = SZCompressor()
        for eb in (1e-3, 1e-2):
            est = comp.estimate(data, eb)
            block = comp.compress(data, eb)
            measured = error_summary(data, comp.decompress(block))
            assert est.predicted_psnr_db == pytest.approx(
                measured.psnr_db, abs=1.0
            )
            assert est.ratio == pytest.approx(block.ratio, rel=0.15)


class TestRQModel:
    def test_prediction_is_a_quality_report(self):
        data = _smooth_field(1)
        crit = QualityCriteria(spectrum_tolerance=0.01, spectrum_k_max=6)
        model = RQModel(data, crit)
        est = SZCompressor().estimate(data, 1e-3)
        report = model.predict(1e-3, [est])
        assert isinstance(report, QualityReport)
        assert report.spectrum_ok == (report.spectrum_worst_deviation <= 0.01)
        assert report.passed == report.spectrum_ok
        assert report.halo_ok is report.halo_mass_rmse is report.halo_count_change is None
        # One whole-field partition: the pooled MSE is the estimate's own.
        assert report.psnr_db == est.predicted_psnr_db
        assert report.nrmse_value == est.predicted_nrmse

    def test_prediction_needs_an_estimate(self):
        model = RQModel(_smooth_field(1))
        with pytest.raises(ValueError, match="at least one probe estimate"):
            model.predict(1e-3, [])

    def test_spectrum_verdict_monotone(self):
        data = _smooth_field(2)
        crit = QualityCriteria(spectrum_tolerance=0.01, spectrum_k_max=6)
        model = RQModel(data, crit)
        devs = [model.predicted_spectrum_deviation(eb) for eb in (1e-4, 1e-2, 1.0)]
        assert devs[0] < devs[1] < devs[2]

    def test_halo_verdict_present_when_checked(self):
        data = _smooth_field(3)
        data[4:9, 4:9, 4:9] += 10.0  # one dense blob: a guaranteed halo
        t = float(np.percentile(data, 90.0))
        crit = QualityCriteria(
            spectrum_tolerance=0.05, spectrum_k_max=6, check_halos=True, t_boundary=t
        )
        model = RQModel(data, crit)
        report = model.predict(1e-4, [SZCompressor().estimate(data, 1e-4)])
        assert report.halo_ok is not None and report.halo_count_change == 0
        # the predicted mass-error fraction
        assert report.halo_mass_rmse is not None and report.halo_mass_rmse >= 0

    def test_after_analyze_predictions_only_read_the_reference(self):
        data = _smooth_field(3)
        data[4:9, 4:9, 4:9] += 10.0
        crit = QualityCriteria(
            spectrum_tolerance=0.05, spectrum_k_max=6, check_halos=True,
            t_boundary=float(np.percentile(data, 90.0)),
        )
        (probe,) = SZCompressor().estimate_ladder([data], [1e-3])
        expected = RQModel(data, crit).predict(1e-3, probe)
        model = RQModel(data, crit)
        model.analyze()
        with telemetry.armed():
            assert model.predict(1e-3, probe) == expected
            counts = {
                m["name"]: m["value"]
                for m in telemetry.get_registry().snapshot()
                if m["name"].startswith("foresight.cache.")
            }
        assert counts and not any(name.endswith(".misses") for name in counts)

    @pytest.mark.parametrize("field", ["temperature", "baryon_density", "velocity_x"])
    def test_probe_at_derived_budget_sits_on_the_tolerance(self, snapshot, field):
        """Budget inversion and prediction read the same spectrum and the
        same sub-threshold power (``SUB_POWER_STRIDE``): a field probed
        at its own derived budget predicts inside the tolerance, and 1 %
        above it predicts outside."""
        data = snapshot[field]
        for tol in (0.01, 0.05):
            eb = derive_eb_budget(
                FieldSpec(spectrum_tolerance=tol, spectrum_k_max=6),
                FieldReference(data),
            )
            model = RQModel(
                data, QualityCriteria(spectrum_tolerance=tol, spectrum_k_max=6)
            )
            assert model.predicted_spectrum_deviation(eb) <= tol
            assert model.predicted_spectrum_deviation(1.01 * eb) > tol


class TestCapabilityGates:
    """probe_mode="model" must refuse compressors with no statistics."""

    def test_calibration_rejects(self):
        parts = [_smooth_field(s) for s in range(2)]
        with pytest.raises(UnsupportedCapabilityError, match="supports_estimate"):
            calibrate_rate_model(
                parts, "sz_adaptive", eb_scale=1e-2, probe_mode="model"
            )

    def test_sweep_rejects(self):
        data = _smooth_field(5)
        with pytest.raises(UnsupportedCapabilityError, match="supports_estimate"):
            run_sweep(
                {"d": data}, [1e-3], {}, compressor="sz_adaptive", probe_mode="model"
            )

    def test_selection_rejects(self):
        data = _smooth_field(6)
        dec = BlockDecomposition(data.shape, (2, 2, 2))
        with pytest.raises(UnsupportedCapabilityError, match="supports_estimate"):
            select_compressor(
                data, dec, candidates=["sz_adaptive"], probe_mode="model",
                eb_avg=1e-2,
            )

    def test_estimate_is_not_a_mode_at_any_entry_point(self):
        """The former third mode raises the one probe_mode ValueError."""
        data = _smooth_field(8)
        dec = BlockDecomposition(data.shape, (2, 2, 2))
        for call in (
            lambda m: calibrate_rate_model([data], eb_scale=1e-2, probe_mode=m),
            lambda m: RateModelBank(probe_mode=m),
            lambda m: select_compressor(data, dec, eb_avg=1e-2, probe_mode=m),
            lambda m: run_sweep({"d": data}, [1e-3], {}, probe_mode=m),
            lambda m: InSituController(dec, probe_mode=m),
        ):
            with pytest.raises(
                ValueError, match="probe_mode must be one of 'exact', 'model', got 'estimate'"
            ):
                call("estimate")

    def test_unknown_modes_rejected(self):
        data = _smooth_field(8)
        dec = BlockDecomposition(data.shape, (2, 2, 2))
        with pytest.raises(ValueError, match="probe_mode"):
            select_compressor(data, dec, probe_mode="psychic", eb_avg=1e-2)
        with pytest.raises(ValueError, match="confirm"):
            run_sweep({"d": data}, [1e-3], {}, confirm="sometimes")
        with pytest.raises(ValueError, match="confirm"):
            run_sweep({"d": data}, [1e-3], {}, probe_mode="exact", confirm="always")
