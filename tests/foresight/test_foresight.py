"""Foresight-style sweeps, quality criteria and reports."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.foresight.quality import QualityCriteria, evaluate_quality
from repro.foresight.report import records_to_table
from repro.foresight.sweep import run_sweep


class TestQualityCriteria:
    def test_defaults(self):
        c = QualityCriteria()
        assert c.spectrum_tolerance == 0.01
        assert not c.check_halos

    def test_halo_requires_threshold(self):
        with pytest.raises(ValueError, match="t_boundary"):
            QualityCriteria(check_halos=True)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            QualityCriteria(spectrum_tolerance=-1.0)


class TestEvaluateQuality:
    def test_identical_passes(self, snapshot):
        data = snapshot["temperature"].astype(np.float64)
        report = evaluate_quality(data, data.copy(), QualityCriteria())
        assert report.passed
        assert report.spectrum_worst_deviation == 0.0
        assert report.psnr_db == float("inf")

    def test_heavy_distortion_fails(self, snapshot):
        rng = np.random.default_rng(0)
        data = snapshot["temperature"].astype(np.float64)
        bad = data + rng.normal(0, data.std(), data.shape)
        report = evaluate_quality(data, bad, QualityCriteria())
        assert not report.passed

    def test_halo_checks_run(self, snapshot):
        data = snapshot["baryon_density"].astype(np.float64)
        tb = float(np.percentile(data, 99.0))
        crit = QualityCriteria(check_halos=True, t_boundary=tb)
        report = evaluate_quality(data, data.copy(), crit)
        assert report.halo_ok is True
        assert report.halo_mass_rmse == pytest.approx(0.0)
        assert report.halo_count_change == 0


class TestSweep:
    def test_record_grid(self, snapshot, decomposition):
        fields = {"temperature": snapshot["temperature"]}
        records = run_sweep(
            fields,
            ebs=[10.0, 100.0],
            criteria={"temperature": QualityCriteria(spectrum_tolerance=0.05)},
            decomposition=decomposition,
        )
        assert len(records) == 2
        assert records[0].ratio < records[1].ratio  # larger eb -> larger ratio

    def test_whole_field_mode(self, snapshot):
        records = run_sweep(
            {"temperature": snapshot["temperature"]},
            ebs=[50.0],
            criteria={},
        )
        assert len(records) == 1
        assert records[0].bit_rate > 0

    def test_rejects_empty(self, snapshot):
        with pytest.raises(ValueError, match="field"):
            run_sweep({}, [1.0], {})
        with pytest.raises(ValueError, match="error bound"):
            run_sweep({"t": snapshot["temperature"]}, [], {})

    def test_rejects_unknown_probe_mode(self, snapshot):
        with pytest.raises(ValueError, match="probe_mode"):
            run_sweep({"t": snapshot["temperature"]}, [1.0], {}, probe_mode="quick")

    def test_compressors_may_be_a_generator(self, snapshot, decomposition):
        """Regression: the emptiness check used to spend a generator, so
        the sweep itself saw no compressor and returned no records."""
        specs = ["sz", "sz:codec=raw"]
        sweep = functools.partial(
            run_sweep, {"t": snapshot["temperature"]}, [50.0], {},
            decomposition=decomposition, rate_only=True,
        )
        as_list = sweep(compressors=list(specs))
        as_generator = sweep(compressors=(s for s in specs))
        assert len(as_list) == 2
        assert [(r.spec, r.ratio) for r in as_generator] == [
            (r.spec, r.ratio) for r in as_list
        ]

    def test_rejects_empty_compressor_slate(self, snapshot):
        for empty in ([], iter(())):
            with pytest.raises(ValueError, match="at least one configuration"):
                run_sweep({"t": snapshot["temperature"]}, [1.0], {}, compressors=empty)


class TestRateOnlySweep:
    def test_rate_only_skips_quality(self, snapshot, decomposition):
        records = run_sweep(
            {"temperature": snapshot["temperature"]},
            ebs=[10.0, 100.0],
            criteria={},
            decomposition=decomposition,
            rate_only=True,
        )
        assert all(r.quality is None and r.passed is None for r in records)
        # Rates are the real, codec-exact ones.
        exact = run_sweep(
            {"temperature": snapshot["temperature"]},
            ebs=[10.0, 100.0],
            criteria={},
            decomposition=decomposition,
        )
        for fast, ref in zip(records, exact):
            assert fast.bit_rate == ref.bit_rate
            assert fast.ratio == ref.ratio

    def test_model_rate_only_is_close(self, snapshot, decomposition):
        fields = {"temperature": snapshot["temperature"]}
        est = run_sweep(
            fields, ebs=[200.0, 2000.0], criteria={}, decomposition=decomposition,
            probe_mode="model", rate_only=True,
        )
        exact = run_sweep(
            fields, ebs=[200.0, 2000.0], criteria={}, decomposition=decomposition,
            rate_only=True,
        )
        for e, x in zip(est, exact):
            assert e.quality is None
            rel = abs(e.bit_rate - x.bit_rate) / x.bit_rate
            assert rel <= 0.10 or abs(e.bit_rate - x.bit_rate) <= 0.1

    def test_model_rate_only_whole_field(self, snapshot):
        records = run_sweep(
            {"temperature": snapshot["temperature"]}, ebs=[25.0], criteria={},
            probe_mode="model", rate_only=True,
        )
        assert len(records) == 1
        assert records[0].bit_rate > 0 and records[0].quality is None

    def test_rate_only_records_render_in_reports(self, snapshot):
        records = run_sweep(
            {"temperature": snapshot["temperature"]}, ebs=[25.0], criteria={},
            probe_mode="model", rate_only=True,
        )
        table = records_to_table(records, title="rate only")
        assert "temperature" in table


class TestReports:
    @pytest.fixture()
    def records(self, snapshot, decomposition):
        return run_sweep(
            {"temperature": snapshot["temperature"]},
            ebs=[10.0, 50.0],
            criteria={},
            decomposition=decomposition,
        )

    def test_table_renders(self, records):
        table = records_to_table(records, title="sweep")
        assert "temperature" in table
        assert "ratio" in table
        assert len(table.splitlines()) == 5  # title + header + sep + 2 rows
