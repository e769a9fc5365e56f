"""Overhead accounting (§4.3)."""

from __future__ import annotations

import pytest

from repro.compression.sz import SZCompressor
from repro.core.overhead import measure_overhead


class TestOverhead:
    def test_phases_measured(self, snapshot, decomposition):
        report = measure_overhead(
            snapshot["baryon_density"], decomposition, eb=0.2, repeats=1
        )
        assert report.feature_time > 0
        assert report.compress_time > 0
        assert report.boundary_time == 0.0  # no t_boundary given

    def test_feature_overhead_small(self, snapshot, decomposition):
        """The paper's headline: mean extraction ~1-1.5% of compression."""
        report = measure_overhead(
            snapshot["baryon_density"], decomposition, eb=0.2, repeats=2
        )
        assert report.feature_overhead < 0.25  # generous CI-machine margin

    def test_boundary_feature_measured(self, snapshot, decomposition):
        report = measure_overhead(
            snapshot["baryon_density"],
            decomposition,
            eb=0.2,
            t_boundary=10.0,
            repeats=1,
        )
        assert report.boundary_time >= 0.0
        assert report.total_overhead >= report.feature_overhead

    def test_rejects_bad_repeats(self, snapshot, decomposition):
        with pytest.raises(ValueError, match="repeats"):
            measure_overhead(snapshot["baryon_density"], decomposition, 0.2, repeats=0)

    def test_times_the_batched_call_the_rank_loop_makes(self, snapshot, decomposition):
        """The rank loop compresses through ``compress_many``; the §4.3
        denominator must not be a per-view ``compress`` loop."""

        class BatchOnly(SZCompressor):
            def compress(self, data, eb):
                raise AssertionError("the rank loop never compresses one view at a time")

        report = measure_overhead(
            snapshot["baryon_density"], decomposition, eb=0.2,
            compressor=BatchOnly(), repeats=1,
        )
        assert report.compress_time > 0
