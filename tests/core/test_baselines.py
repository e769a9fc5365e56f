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

    def test_trials_restart_on_every_search(self):
        """A second search on the same object reports its own trials,
        not the first search's plus its own."""
        from repro.parallel.decomposition import BlockDecomposition
        from repro.sim.nyx import NyxSimulator

        data = NyxSimulator(shape=(16, 16, 16), seed=0).snapshot(z=1.0)["temperature"]
        dec = BlockDecomposition((16, 16, 16), blocks=2)
        search = TrialAndErrorSearch(
            lambda o, r: check_spectrum_quality(o, r, tolerance=0.5)
        )
        first = search.search(data, dec, [1.0])
        assert search.n_trials == 1
        again = search.search(data, dec, [1.0])
        assert search.n_trials == 1
        assert [b.payloads for b in again.blocks] == [b.payloads for b in first.blocks]

    def test_takes_only_a_quality_check_and_a_compressor(self):
        """Every trial is exact: no model screening, no second quality
        vocabulary (that is ``run_sweep(probe_mode="model")``)."""
        import inspect

        params = list(inspect.signature(TrialAndErrorSearch).parameters)
        assert params == ["quality_check", "compressor"]

    def test_trials_are_static_runs_checked(self, snapshot, decomposition):
        """Each trial is exactly a static run at its bound, judged by the
        quality check on the float64 original and the reconstruction;
        the search returns the first passing run, largest bound first."""
        data = snapshot["temperature"]
        seen = []

        def check(original, recon):
            seen.append(original.dtype)
            return check_spectrum_quality(original, recon, tolerance=0.02)

        search = TrialAndErrorSearch(check)
        result = search.search(data, decomposition, [10000.0, 1.0, 100.0])
        assert seen == [np.float64] * search.n_trials
        assert [t.eb for t in search.trials] == [10000.0, 100.0, 1.0][: search.n_trials]
        original = np.asarray(data, dtype=np.float64)
        for trial in search.trials:
            static = StaticBaseline().run(data, decomposition, trial.eb)
            passed, metric = check_spectrum_quality(
                original, static.reconstruct(decomposition), tolerance=0.02
            )
            assert (trial.passed, trial.ratio, trial.quality_metric) == (
                passed, static.overall_ratio, metric,
            )
        accepted = StaticBaseline().run(data, decomposition, search.trials[-1].eb)
        assert [b.payloads for b in result.blocks] == [
            b.payloads for b in accepted.blocks
        ]
