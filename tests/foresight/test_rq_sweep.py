"""Model-mode sweeps: predicted records, confirmation, lazy references."""

import numpy as np
import pytest

import repro.foresight.sweep as sweep_mod
from repro.compression.sz import SZCompressor
from repro.foresight.evaluator import FieldReference
from repro.foresight.quality import QualityCriteria, QualityReport
from repro.foresight.sweep import BOUNDARY_BAND_FACTOR, _near_boundary, run_sweep
from repro.parallel.decomposition import BlockDecomposition


@pytest.fixture
def field():
    rng = np.random.default_rng(11)
    return rng.normal(1.0, 0.3, (32, 32, 32)) + 2.0


@pytest.fixture
def crit():
    return {"d": QualityCriteria(spectrum_tolerance=0.01, spectrum_k_max=8)}


EBS = [2e-4, 1e-3, 5e-3, 2e-2]


class TestModelMode:
    def test_model_records_carry_predicted_quality(self, field, crit):
        records = run_sweep({"d": field}, EBS, crit, probe_mode="model")
        assert len(records) == len(EBS)
        for rec in records:
            assert rec.quality is not None
            assert rec.passed is not None
            assert np.isfinite(rec.quality.psnr_db)
            assert rec.quality.spectrum_worst_deviation >= 0

    def test_model_matches_exact_verdicts(self, field, crit):
        dec = BlockDecomposition(field.shape, (2, 2, 2))
        exact = run_sweep({"d": field}, EBS, crit, decomposition=dec)
        model = run_sweep(
            {"d": field}, EBS, crit, decomposition=dec, probe_mode="model"
        )
        assert [r.passed for r in exact] == [r.passed for r in model]
        for re_, rm in zip(exact, model):
            assert rm.quality.psnr_db == pytest.approx(re_.quality.psnr_db, abs=1.0)
            assert rm.ratio == pytest.approx(re_.ratio, rel=0.15)

    def test_model_never_compresses_without_confirm(self, field, crit, monkeypatch):
        from repro.compression.sz import SZCompressor

        def boom(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("model-mode sweep ran the codec")

        monkeypatch.setattr(SZCompressor, "compress", boom)
        monkeypatch.setattr(SZCompressor, "decompress", boom)
        records = run_sweep({"d": field}, EBS, crit, probe_mode="model")
        assert all(r.quality is not None for r in records)

    def test_confirm_always_is_refused(self, field, crit):
        """A model sweep that measures every cell is the exact sweep."""
        with pytest.raises(
            ValueError, match="^confirm must be 'never' or 'boundary', got 'always'$"
        ):
            run_sweep({"d": field}, EBS, crit, probe_mode="model", confirm="always")

    def test_confirm_boundary_only_reruns_borderline(self, field, crit):
        dec = BlockDecomposition(field.shape, (2, 2, 2))
        exact = run_sweep({"d": field}, EBS, crit, decomposition=dec)
        boundary = run_sweep(
            {"d": field}, EBS, crit, decomposition=dec,
            probe_mode="model", confirm="boundary",
        )
        assert [r.passed for r in exact] == [r.passed for r in boundary]


class TestRateOnlyConfirm:
    def test_confirm_always_is_refused(self, field, crit, monkeypatch):
        """The exact rate-only sweep measures every rate; the model one
        is refused the value before it probes anything."""
        monkeypatch.setattr(
            SZCompressor, "estimate_ladder", lambda *a, **k: pytest.fail("probed")
        )
        with pytest.raises(
            ValueError, match="^confirm must be 'never' or 'boundary', got 'always'$"
        ):
            run_sweep(
                {"d": field}, EBS, crit, probe_mode="model", rate_only=True, confirm="always"
            )

    def test_confirm_boundary_has_no_verdict_to_be_near(self, field, crit):
        with pytest.raises(ValueError, match=r'confirm="boundary".*rate_only=True'):
            run_sweep(
                {"d": field}, EBS, crit,
                probe_mode="model", rate_only=True, confirm="boundary",
            )


def _report(spectrum: float, halo: float | None = None) -> QualityReport:
    """A predicted report: ``halo_mass_rmse`` is the mass-error fraction."""
    return QualityReport(
        spectrum_ok=True, spectrum_worst_deviation=spectrum,
        halo_ok=None if halo is None else True, halo_mass_rmse=halo,
        halo_count_change=None if halo is None else 0,
        psnr_db=np.inf, nrmse_value=0.0,
    )


class TestBoundaryBand:
    def test_near_and_far(self):
        crit = QualityCriteria(spectrum_tolerance=0.01, spectrum_k_max=6)
        assert _near_boundary(_report(0.011), crit)
        assert not _near_boundary(_report(1e-6), crit)

    def test_the_band_is_the_module_factor(self):
        """The band is ``[tol / F, tol * F]`` with ``F`` =
        ``BOUNDARY_BAND_FACTOR``, edges included, for the spectrum and
        the halo-mass verdicts alike."""
        crit = QualityCriteria(spectrum_tolerance=0.01, halo_mass_rmse=0.02)
        f = BOUNDARY_BAND_FACTOR
        for tol, make in (
            (0.01, lambda v: _report(v)),
            (0.02, lambda v: _report(1e-9, halo=v)),
        ):
            assert _near_boundary(make(tol / f), crit)
            assert _near_boundary(make(tol * f), crit)
            assert not _near_boundary(make(np.nextafter(tol / f, 0.0)), crit)
            assert not _near_boundary(make(np.nextafter(tol * f, np.inf)), crit)


class TestLazyReferences:
    def _forbid_references(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("rate-only sweep built a FieldReference")

        monkeypatch.setattr(sweep_mod, "FieldReference", boom)
        monkeypatch.setattr(FieldReference, "spectrum", boom)
        monkeypatch.setattr(FieldReference, "halos", boom)

    def test_rate_only_builds_no_reference(self, field, crit, monkeypatch):
        self._forbid_references(monkeypatch)
        records = run_sweep({"d": field}, EBS, crit, rate_only=True)
        assert all(r.quality is None for r in records)

    def test_model_rate_only_builds_no_reference(self, field, crit, monkeypatch):
        self._forbid_references(monkeypatch)
        records = run_sweep(
            {"d": field}, EBS, crit, probe_mode="model", rate_only=True
        )
        assert all(r.quality is None for r in records)

    def test_quality_sweep_shares_one_reference_across_compressors(
        self, field, crit, monkeypatch
    ):
        built = []
        real = sweep_mod.FieldReference

        def counting(data):
            built.append(1)
            return real(data)

        monkeypatch.setattr(sweep_mod, "FieldReference", counting)
        run_sweep(
            {"d": field}, EBS[:2], crit,
            compressors=["sz", "sz:codec=huffman"],
        )
        assert len(built) == 1
