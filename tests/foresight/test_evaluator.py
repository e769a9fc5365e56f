"""Reference-cached quality engine: parity, caching and parallel sweeps.

The evaluator must produce :class:`QualityReport`s matching the seed
``evaluate_quality`` implementation exactly for halos, for spectra
exactly where both bin a full ``rfftn`` and within 1e-12 where the
evaluator takes the low-k transform, and to floating-point tolerance
for the fused PSNR/NRMSE, across compressor
engines and decompositions; quality sweeps must analyze the original
field exactly once per field; and a sweep's records must be what
compressing, reconstructing and evaluating each bound by hand gives.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.foresight.evaluator as evaluator_mod
from repro.analysis.catalog import compare_catalogs
from repro.analysis.halos import find_halos
from repro.analysis.metrics import nrmse, psnr
from repro.analysis.spectrum import low_k_only, power_spectrum
from repro.compression.api import CompressorSpec, resolve_compressor
from repro.compression.sz import SZCompressor, decompress
from repro.foresight.evaluator import FieldReference, QualityEvaluator, spectrum_deviation
from repro.foresight.quality import QualityCriteria, QualityReport, evaluate_quality
from repro.foresight.sweep import run_sweep


def seed_evaluate_quality(original, reconstructed, criteria) -> QualityReport:
    """The seed implementation, frozen: every original-side analysis is
    recomputed per call, spectra are binned to Nyquist, and PSNR/NRMSE
    each run their own error pass."""
    orig = np.asarray(original, dtype=np.float64)
    rec = np.asarray(reconstructed, dtype=np.float64)
    ps_o = power_spectrum(orig)
    ps_r = power_spectrum(rec)
    if (ps_o.power <= 0).any():
        raise ValueError("original spectrum has empty bins; reduce nbins")
    ratio = ps_r.power / ps_o.power
    mask = ps_o.k < criteria.spectrum_k_max
    if not mask.any():
        raise ValueError(f"no spectrum bins below k_max={criteria.spectrum_k_max}")
    worst = float(np.max(np.abs(ratio[mask] - 1.0)))
    halo_ok = halo_rmse = halo_dcount = None
    if criteria.check_halos:
        cat_o = find_halos(orig, criteria.t_boundary, criteria.t_halo)
        cat_r = find_halos(rec, criteria.t_boundary, criteria.t_halo)
        cmp = compare_catalogs(cat_o, cat_r, max_distance=criteria.halo_match_distance)
        halo_rmse = cmp.mass_rmse
        halo_dcount = cmp.count_change
        halo_ok = bool(np.isfinite(halo_rmse) and halo_rmse <= criteria.halo_mass_rmse)
    return QualityReport(
        spectrum_ok=worst <= criteria.spectrum_tolerance,
        spectrum_worst_deviation=worst,
        halo_ok=halo_ok,
        halo_mass_rmse=halo_rmse,
        halo_count_change=halo_dcount,
        psnr_db=psnr(orig, rec),
        nrmse_value=nrmse(orig, rec),
    )


def assert_reports_match(new: QualityReport, seed: QualityReport) -> None:
    """Exact for spectrum/halo results, fp-tolerant for fused metrics."""
    assert new.spectrum_ok == seed.spectrum_ok
    assert new.spectrum_worst_deviation == seed.spectrum_worst_deviation
    assert new.halo_ok == seed.halo_ok
    assert new.halo_count_change == seed.halo_count_change
    if seed.halo_mass_rmse is None:
        assert new.halo_mass_rmse is None
    else:
        assert new.halo_mass_rmse == seed.halo_mass_rmse
    if seed.psnr_db == float("inf"):
        assert new.psnr_db == float("inf")
    else:
        assert new.psnr_db == pytest.approx(seed.psnr_db, rel=1e-12)
    assert new.nrmse_value == pytest.approx(seed.nrmse_value, rel=1e-12, abs=1e-300)


class TestSeedParity:
    @pytest.mark.parametrize("engine", ["dual", "classic"])
    @pytest.mark.parametrize("use_decomposition", [False, True])
    def test_matches_seed_across_engines_and_decompositions(
        self, snapshot, decomposition, engine, use_decomposition
    ):
        data = snapshot["baryon_density"]
        tb = float(np.percentile(data.astype(np.float64), 99.0))
        crit = QualityCriteria(
            spectrum_tolerance=0.05, check_halos=True, t_boundary=tb
        )
        comp = resolve_compressor(CompressorSpec.sz(engine=engine))
        ev = QualityEvaluator(data, crit)
        for eb in (0.01, 0.2):
            if use_decomposition:
                blocks = [
                    comp.compress(v, eb) for v in decomposition.partition_views(data)
                ]
                recon = decomposition.assemble([decompress(b) for b in blocks])
            else:
                recon = decompress(comp.compress(data, eb))
            assert_reports_match(
                ev.evaluate(recon), seed_evaluate_quality(data, recon, crit)
            )

    @pytest.mark.parametrize("k_max", [5, 10])
    def test_identical_reconstruction(self, snapshot, k_max):
        data = snapshot["temperature"].astype(np.float64)
        # 32^3: k_max=5 bins 4 modes (the low-k transform), k_max=10 bins
        # 9 (the full rfftn) — an unchanged field scores 0 on both.
        assert low_k_only(data.shape, k_max - 1) == (k_max == 5)
        crit = QualityCriteria(spectrum_k_max=k_max)
        report = QualityEvaluator(data, crit).evaluate(data.copy())
        assert report.passed
        assert report.spectrum_worst_deviation == 0.0
        assert report.psnr_db == float("inf")
        assert report.nrmse_value == 0.0
        assert spectrum_deviation(FieldReference(data), data.copy(), k_max) == 0.0

    @pytest.mark.parametrize("k_max", [5, 10])
    def test_low_k_transform_within_1e12_of_seed(self, snapshot, k_max):
        data = snapshot["baryon_density"]
        recon = decompress(SZCompressor().compress(data, 0.05))
        crit = QualityCriteria(spectrum_tolerance=0.5, spectrum_k_max=k_max)
        got = QualityEvaluator(data, crit).evaluate(recon).spectrum_worst_deviation
        want = seed_evaluate_quality(data, recon, crit).spectrum_worst_deviation
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("k_max", [5, 10])
    def test_spectrum_deviation_is_the_evaluators_bits(self, snapshot, k_max):
        """The stream controller's quality check records only this."""
        data = snapshot["temperature"]
        ref = FieldReference(data)
        ref.spectrum()  # a calibration's Nyquist binning came first
        crit = QualityCriteria(spectrum_k_max=k_max)
        ev = QualityEvaluator(criteria=crit, reference=FieldReference(data))
        for eb in (1.0, 50.0):
            recon = decompress(SZCompressor().compress(data, eb))
            assert spectrum_deviation(ref, recon, k_max) == ev.evaluate(
                recon
            ).spectrum_worst_deviation

    def test_evaluate_quality_front_matches_evaluator(self, snapshot):
        data = snapshot["temperature"]
        recon = decompress(SZCompressor().compress(data, 50.0))
        crit = QualityCriteria(spectrum_tolerance=0.05)
        assert evaluate_quality(data, recon, crit) == QualityEvaluator(
            data, crit
        ).evaluate(recon)

    def test_constant_original_raises_like_seed(self):
        flat = np.full((8, 8, 8), 3.0)
        bumpy = flat + np.random.default_rng(0).normal(0, 1e-3, flat.shape)
        with pytest.raises(ValueError, match="empty bins"):
            QualityEvaluator(flat, QualityCriteria()).evaluate(bumpy)


class TestFieldReference:
    def test_analyses_cached(self, snapshot):
        ref = FieldReference(snapshot["baryon_density"])
        assert ref.spectrum(8) is ref.spectrum(8)
        assert ref.halos(1.5) is ref.halos(1.5)
        assert ref.moments is ref.moments
        assert ref.f64 is ref.f64

    def test_one_transform_for_every_nbins(self, snapshot, monkeypatch):
        """The budget inversion bins to Nyquist, the evaluator below
        ``k_max``: one ``rfftn`` serves every full-transform ``nbins``,
        and each low-k ``nbins`` is its own pruned transform — each the
        bits ``power_spectrum`` gives."""
        data = snapshot["temperature"]
        calls = {"rfft_of": 0, "power_spectrum": 0}
        for name in calls:
            real = getattr(evaluator_mod, name)

            def counted(*a, _name=name, _real=real, **k):
                calls[_name] += 1
                return _real(*a, **k)

            monkeypatch.setattr(evaluator_mod, name, counted)
        ref = FieldReference(data)
        for nbins in (None, 9, 4, 16, 2):
            got = ref.spectrum(nbins)
            want = power_spectrum(data.astype(np.float64), nbins=nbins)
            assert np.array_equal(got.power, want.power)
            assert np.array_equal(got.n_modes, want.n_modes)
        # 32^3: 4 and 2 bins take the low-k transform; None, 9, 16 the rfftn.
        assert calls == {"rfft_of": 1, "power_spectrum": 2}

    def test_requires_field_or_reference(self):
        with pytest.raises(ValueError, match="original field or a reference"):
            QualityEvaluator()

    def test_shared_reference_across_evaluators(self, snapshot, monkeypatch):
        data = snapshot["temperature"]
        ref = FieldReference(data)
        QualityEvaluator(criteria=QualityCriteria(), reference=ref)
        calls = {"n": 0}
        for name in ("power_spectrum", "rfft_of", "binned_power"):
            real = getattr(evaluator_mod, name)

            def counting(*args, _real=real, **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(evaluator_mod, name, counting)
        # Same criteria -> same nbins key -> second evaluator reuses the
        # first one's cached original spectrum.
        QualityEvaluator(criteria=QualityCriteria(), reference=ref)
        assert calls["n"] == 0


class TestOriginalAnalyzedOnce:
    @pytest.mark.parametrize("k_max", [5, 10])
    @pytest.mark.parametrize("n_ebs", [3, 6])
    def test_sweep_runs_one_reference_analysis_per_field(
        self, snapshot, decomposition, monkeypatch, n_ebs, k_max
    ):
        counts = {"spectrum": 0, "halos": 0}

        def counting(name, key):
            real = getattr(evaluator_mod, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(evaluator_mod, name, counted)

        # A spectrum is one transform: the reference's full one
        # (``rfft_of``, binned per nbins), or a low-k one of the reference
        # or a reconstruction (``power_spectrum``, either transform).
        counting("rfft_of", "spectrum")
        counting("power_spectrum", "spectrum")
        counting("find_halos", "halos")

        density = snapshot["baryon_density"]
        tb = float(np.percentile(density.astype(np.float64), 99.0))
        run_sweep(
            {"baryon_density": density},
            ebs=np.geomspace(0.01, 0.5, n_ebs),
            criteria={
                "baryon_density": QualityCriteria(
                    spectrum_tolerance=0.5,
                    spectrum_k_max=k_max,
                    check_halos=True,
                    t_boundary=tb,
                )
            },
            decomposition=decomposition,
        )
        # One reference analysis plus one per reconstruction — never one
        # per (reconstruction, original) pair like the seed path.
        assert counts["spectrum"] == n_ebs + 1
        assert counts["halos"] == n_ebs + 1

    @pytest.mark.parametrize("k_max", [5, 10])
    def test_built_evaluator_keeps_caches(self, snapshot, monkeypatch, k_max):
        data = snapshot["baryon_density"]
        tb = float(np.percentile(data.astype(np.float64), 99.0))
        crit = QualityCriteria(
            spectrum_tolerance=0.5, spectrum_k_max=k_max, check_halos=True, t_boundary=tb
        )
        ev = QualityEvaluator(data, crit)
        recon = decompress(SZCompressor().compress(data, 0.1))

        counts = {"spectrum": 0, "halos": 0}
        real_ps = evaluator_mod.power_spectrum
        real_fh = evaluator_mod.find_halos
        monkeypatch.setattr(
            evaluator_mod,
            "power_spectrum",
            lambda *a, **k: counts.__setitem__("spectrum", counts["spectrum"] + 1)
            or real_ps(*a, **k),
        )
        monkeypatch.setattr(
            evaluator_mod,
            "find_halos",
            lambda *a, **k: counts.__setitem__("halos", counts["halos"] + 1)
            or real_fh(*a, **k),
        )
        ev.evaluate(recon)
        # Only the reconstruction is analyzed; the original's spectrum
        # and catalog were cached when the evaluator was built.
        assert counts == {"spectrum": 1, "halos": 1}


class TestInlineEvaluation:
    def test_records_match_a_manual_loop(self, snapshot, decomposition):
        """Each bound is compressed, reconstructed and evaluated in turn;
        the records are exactly that loop's."""
        density = snapshot["baryon_density"]
        tb = float(np.percentile(density.astype(np.float64), 99.0))
        criteria = {
            "baryon_density": QualityCriteria(
                spectrum_tolerance=0.5, check_halos=True, t_boundary=tb
            ),
            "temperature": QualityCriteria(spectrum_tolerance=0.5),
        }
        fields = {"baryon_density": density, "temperature": snapshot["temperature"]}
        ebs = [0.05, 0.2, 0.8]
        records = run_sweep(fields, ebs=ebs, criteria=criteria, decomposition=decomposition)
        comp = resolve_compressor(None)
        want = []
        for name, data in fields.items():
            evaluator = QualityEvaluator(data, criteria[name])
            views = decomposition.partition_views(data)
            for eb in ebs:
                blocks = comp.compress_many(views, [eb] * len(views))
                recon = decomposition.assemble([decompress(b) for b in blocks])
                want.append((name, eb, evaluator.evaluate(recon)))
        assert [(r.field, r.eb, r.quality) for r in records] == want


class TestEmptyHaloCatalogs:
    """With no halo above ``t_boundary`` in either field there is nothing
    for the halo check to judge: its verdict is vacuous, as the R-Q
    model's is.  A catalog lost or grown still fails it."""

    CRITERIA = QualityCriteria(check_halos=True, t_boundary=100.0)

    @pytest.fixture
    def flat(self):
        return np.random.default_rng(0).normal(1.0, 0.1, (32, 32, 32))

    @pytest.fixture
    def spiked(self, flat):
        out = flat.copy()
        out[8:10, 8:10, 8:10] = 500.0  # one halo above t_boundary
        return out

    def test_a_field_against_itself_passes(self, flat):
        report = QualityEvaluator(flat, self.CRITERIA).evaluate(flat)
        assert (report.halo_ok, report.halo_mass_rmse) == (None, None)
        assert report.halo_count_change == 0
        assert report.passed

    def test_exact_sweep_cells_pass_like_the_models(self, flat):
        ebs = [1e-3, 1e-2]
        records = {
            mode: run_sweep(
                {"rho": flat}, ebs, {"rho": self.CRITERIA}, probe_mode=mode
            )
            for mode in ("exact", "model")
        }
        assert [r.quality.halo_ok for r in records["exact"]] == [None, None]
        assert records["exact"][0].passed and records["model"][0].passed

    def test_losing_every_halo_fails(self, flat, spiked):
        report = QualityEvaluator(spiked, self.CRITERIA).evaluate(flat)
        assert report.halo_ok is False and not report.passed
        assert report.halo_count_change == -1

    def test_growing_a_halo_fails(self, flat, spiked):
        report = QualityEvaluator(flat, self.CRITERIA).evaluate(spiked)
        assert report.halo_ok is False and not report.passed
        assert report.halo_count_change == 1
