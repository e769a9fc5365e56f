"""Static baseline and the trial-and-error search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.spectrum import check_spectrum_quality
from repro.core.baselines import StaticBaseline, TrialAndErrorSearch


class TestStaticBaseline:
    def test_uniform_bounds(self, snapshot, decomposition):
        res = StaticBaseline().run(snapshot["temperature"], decomposition, 50.0)
        assert all(b.eb == 50.0 for b in res.blocks)
        assert res.ebs.tolist() == [50.0] * decomposition.n_partitions

    def test_is_the_adaptive_result_type(self, snapshot, decomposition):
        """One result type from rank loop to caller: no optimizer ran, so
        there are no features and no optimization to report."""
        from repro.core.pipeline import SnapshotResult

        res = StaticBaseline().run(snapshot["temperature"], decomposition, 50.0)
        assert type(res) is SnapshotResult
        assert res.features == [] and res.optimization is None
        assert res.overall_ratio == res.stats.overall_ratio > 1.0

    def test_reconstruct_respects_bound(self, snapshot, decomposition):
        data = snapshot["temperature"]
        res = StaticBaseline().run(data, decomposition, 50.0)
        recon = res.reconstruct(decomposition)
        assert np.max(np.abs(recon - data)) <= 50.0 + 1e-6

    def test_rejects_bad_eb(self, snapshot, decomposition):
        with pytest.raises(ValueError, match="positive"):
            StaticBaseline().run(snapshot["temperature"], decomposition, 0.0)


class TestTrialAndError:
    def test_finds_largest_passing_bound(self, snapshot, decomposition):
        data = snapshot["temperature"]
        search = TrialAndErrorSearch(
            lambda o, r: check_spectrum_quality(o, r, tolerance=0.02)
        )
        result = search.search(data, decomposition, [1.0, 10.0, 100.0, 10000.0])
        # The returned bound passed; every larger candidate failed.
        trials = {t.eb: t.passed for t in search.trials}
        accepted = search.trials[-1].eb
        assert set(result.ebs.tolist()) == {accepted}
        assert trials[accepted]
        for eb, passed in trials.items():
            if eb > accepted:
                assert not passed

    def test_counts_trials(self, snapshot, decomposition):
        data = snapshot["temperature"]
        search = TrialAndErrorSearch(
            lambda o, r: check_spectrum_quality(o, r, tolerance=0.02)
        )
        search.search(data, decomposition, [1.0, 100.0])
        assert search.n_trials >= 1
        assert search.n_trials <= 2

    def test_all_failing_raises(self, snapshot, decomposition):
        data = snapshot["temperature"]
        search = TrialAndErrorSearch(lambda o, r: (False, 1.0))
        with pytest.raises(ValueError, match="no candidate"):
            search.search(data, decomposition, [1.0])

    def test_rejects_empty_candidates(self, snapshot, decomposition):
        search = TrialAndErrorSearch(lambda o, r: (True, 0.0))
        with pytest.raises(ValueError, match="at least one"):
            search.search(snapshot["temperature"], decomposition, [])

    def test_rejects_nonpositive_candidates(self, snapshot, decomposition):
        search = TrialAndErrorSearch(lambda o, r: (True, 0.0))
        with pytest.raises(ValueError, match="positive"):
            search.search(snapshot["temperature"], decomposition, [1.0, -2.0])

    def test_records_quality_metric(self, snapshot, decomposition):
        data = snapshot["temperature"]
        search = TrialAndErrorSearch(
            lambda o, r: check_spectrum_quality(o, r, tolerance=0.02)
        )
        search.search(data, decomposition, [10.0])
        assert search.trials[0].quality_metric >= 0.0
        assert search.trials[0].ratio > 1.0

    @pytest.mark.parametrize("probe_mode", ["exact", "model"])
    def test_trials_restart_on_every_search(self, probe_mode):
        """Regression: model mode returned before ``trials`` was reset,
        so a second search on the same object reported 1 -> 2 trials."""
        from repro.foresight.quality import QualityCriteria
        from repro.parallel.decomposition import BlockDecomposition
        from repro.sim.nyx import NyxSimulator

        data = NyxSimulator(shape=(16, 16, 16), seed=0).snapshot(z=1.0)["temperature"]
        dec = BlockDecomposition((16, 16, 16), blocks=2)
        search = TrialAndErrorSearch(
            criteria=QualityCriteria(spectrum_tolerance=0.5), probe_mode=probe_mode
        )
        first = search.search(data, dec, [1.0])
        assert search.n_trials == 1
        again = search.search(data, dec, [1.0])
        assert search.n_trials == 1
        assert [b.payloads for b in again.blocks] == [b.payloads for b in first.blocks]
