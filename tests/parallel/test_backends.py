"""The rank loop: one execution path, timings, and the retired options."""

from __future__ import annotations

import functools
import inspect
import operator

import numpy as np
import pytest

import repro.core.optimizer as optimizer_mod
import repro.parallel.backends as backends_mod
from repro.compression.api import resolve_compressor
from repro.compression.sz import SZCompressor
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.optimizer import local_protocol_bound, rank_order_mean
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.rate_model import RateModel
from repro.parallel.backends import SnapshotTask, run_snapshot
from repro.parallel.decomposition import BlockDecomposition


@pytest.fixture(scope="module")
def rate_model():
    return RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)


def _halo_spec(data: np.ndarray) -> HaloQualitySpec:
    tb = float(np.percentile(np.asarray(data, dtype=np.float64), 99.0))
    return HaloQualitySpec(t_boundary=tb, mass_budget=100.0, reference_eb=0.5)


class TestOnePath:
    def test_module_is_the_rank_loop(self):
        assert backends_mod.__all__ == ["SnapshotTask", "SnapshotResult", "run_snapshot"]
        for gone in ("ExecutionBackend", "SerialBackend", "ProcessBackend",
                     "BACKENDS", "get_backend"):
            assert not hasattr(backends_mod, gone)

    def test_default_and_serial_are_the_same_path(
        self, snapshot, decomposition, rate_model
    ):
        data = snapshot["baryon_density"]
        default = AdaptiveCompressionPipeline(rate_model).run(data, decomposition, 0.2)
        named = AdaptiveCompressionPipeline(rate_model, backend="serial").run(
            data, decomposition, 0.2
        )
        assert np.array_equal(default.ebs, named.ebs)
        assert [b.payloads for b in default.blocks] == [b.payloads for b in named.blocks]

    @pytest.mark.parametrize("name", ["process", "thread", "gpu"])
    def test_pipeline_rejects_every_other_backend(self, rate_model, name):
        with pytest.raises(ValueError, match=repr(name)):
            AdaptiveCompressionPipeline(rate_model, backend=name)

    def test_pipeline_holds_nothing_to_release(self, rate_model):
        pipe = AdaptiveCompressionPipeline(rate_model)
        for gone in ("backend", "close", "__enter__", "__exit__"):
            assert not hasattr(pipe, gone)

    @pytest.mark.parametrize("front", ["controller", "resume", "sweep"])
    def test_backend_is_not_an_argument(self, decomposition, tmp_path, front):
        from repro.foresight import QualityCriteria, run_sweep
        from repro.stream import InSituController

        fronts = {
            "controller": lambda: InSituController(decomposition, backend="serial"),
            "resume": lambda: InSituController.resume(
                tmp_path / "run.jsonl", backend="serial"
            ),
            "sweep": lambda: run_sweep(
                {"f": np.ones(decomposition.shape)},
                [0.1],
                {"f": QualityCriteria()},
                decomposition=decomposition,
                backend="serial",
            ),
        }
        with pytest.raises(TypeError, match="backend"):
            fronts[front]()

    def test_no_per_call_backend(self):
        params = inspect.signature(AdaptiveCompressionPipeline.run).parameters
        assert "backend" not in params
        assert AdaptiveCompressionPipeline.run_insitu_spmd is AdaptiveCompressionPipeline.run


class TestBackendEquivalence:
    """The pipeline is :func:`run_snapshot` on a task, byte for byte."""

    @pytest.mark.parametrize("normalization", ["exact", "local"])
    @pytest.mark.parametrize("use_halo", [False, True])
    def test_byte_identical_blocks_and_ebs(
        self, snapshot, decomposition, rate_model, normalization, use_halo,
    ):
        data = snapshot["baryon_density"]
        halo = _halo_spec(data) if use_halo else None
        pipe = AdaptiveCompressionPipeline(
            rate_model, settings=OptimizerSettings(normalization=normalization)
        )
        via_pipe = pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        direct = run_snapshot(
            SnapshotTask(
                data=data, decomposition=decomposition, eb_avg=0.2,
                rate_model=rate_model, compressor=pipe.compressor,
                settings=pipe.settings, halo=halo,
            )
        )
        assert np.array_equal(via_pipe.ebs, direct.ebs)
        assert [b.payloads for b in via_pipe.blocks] == [b.payloads for b in direct.blocks]
        assert [f.mean_abs for f in via_pipe.features] == [
            f.mean_abs for f in direct.features
        ]

    def test_all_backends_report_timings(self, snapshot, decomposition, rate_model):
        pipe = AdaptiveCompressionPipeline(rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert set(res.timings.totals) == {"features", "optimize", "compress"}
        assert res.timings.totals["compress"] > 0
        assert res.timings.overhead_ratio("features", "compress") >= 0

    def test_times_the_batched_call_the_rank_loop_makes(
        self, snapshot, decomposition, rate_model
    ):
        """The rank loop compresses through ``compress_many``: the §4.3
        denominator, its ``compress`` phase, is not a per-view loop."""

        class BatchOnly(SZCompressor):
            def compress(self, data, eb):
                raise AssertionError("the rank loop never compresses one view at a time")

        res = run_snapshot(
            SnapshotTask(
                data=snapshot["baryon_density"], decomposition=decomposition,
                eb_avg=0.2, rate_model=rate_model,
                compressor=resolve_compressor(BatchOnly()),
                settings=OptimizerSettings(),
            )
        )
        assert len(res.blocks) == decomposition.n_partitions
        assert res.timings.totals["compress"] > 0

    @pytest.mark.parametrize("use_halo", [False, True])
    def test_features_phase_covers_the_boundary_feature(
        self, snapshot, decomposition, rate_model, use_halo
    ):
        """With a halo spec the ``features`` phase also counts boundary
        cells, so §4.3's boundary cost is the difference of the two runs'
        ``features`` phases."""
        data = snapshot["baryon_density"]
        res = run_snapshot(
            SnapshotTask(
                data=data, decomposition=decomposition, eb_avg=0.2,
                rate_model=rate_model, compressor=resolve_compressor(None),
                settings=OptimizerSettings(),
                halo=_halo_spec(data) if use_halo else None,
            )
        )
        assert len(res.features) == decomposition.n_partitions
        for f in res.features:
            assert (f.effective_cell_rate is not None) is use_halo

    def test_caller_compressor_instance_is_used(
        self, snapshot, decomposition, rate_model
    ):
        """The caller's configuration reaches the payloads: they are the
        instance's own, and not the default compressor's."""
        data = snapshot["baryon_density"]
        views = decomposition.partition_views(data)
        comp = resolve_compressor("sz:codec=huffman,radius=64")
        res = AdaptiveCompressionPipeline(rate_model, compressor=comp).run(
            data, decomposition, eb_avg=0.2
        )
        got = [b.payloads for b in res.blocks]
        assert got == [b.payloads for b in comp.compress_many(views, res.ebs)]
        default = resolve_compressor(None).compress_many(views, res.ebs)
        assert all(g != d.payloads for g, d in zip(got, default))

    def test_compress_failure_propagates(self, snapshot, decomposition, rate_model):
        data = np.asarray(snapshot["baryon_density"], dtype=np.float64).copy()
        data[0, 0, 0] = -1.0  # pw_rel compression rejects non-positive data
        pipe = AdaptiveCompressionPipeline(
            rate_model, compressor=SZCompressor(mode="pw_rel")
        )
        with pytest.raises(ValueError, match="positive"):
            pipe.run(data, decomposition, eb_avg=0.01)
        ok = pipe.run(np.abs(data) + 1.0, decomposition, eb_avg=0.01)
        assert len(ok.blocks) == decomposition.n_partitions


class TestSingleOptimization:
    """Every decision goes through :func:`repro.core.optimizer.optimize`
    exactly once: one call per snapshot, one per decision when a ledger
    replays."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen: list[bool] = []
        real = optimizer_mod.optimize

        def counting(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append(result.constraint == "combined")
            return result

        monkeypatch.setattr(optimizer_mod, "optimize", counting)
        return seen

    def test_exact_mode_optimizes_once(self, snapshot, decomposition, rate_model, calls):
        pipe = AdaptiveCompressionPipeline(rate_model)
        pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert calls == [False]

    def test_halo_mode_optimizes_once(self, snapshot, decomposition, rate_model, calls):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(rate_model)
        pipe.run(data, decomposition, eb_avg=0.2, halo=_halo_spec(data))
        assert calls == [True]

    def test_replay_optimizes_once_per_decision(self, calls):
        from pathlib import Path

        from repro.stream.controller import replay_ledger
        from repro.stream.ledger import RunLedger

        ledger = Path(__file__).parents[1] / "stream" / "fixtures" / "v2_ledger.jsonl"
        decisions = [
            e for e in RunLedger.load(ledger).events if e.kind == "decision"
        ]
        assert len(replay_ledger(ledger)) == len(decisions) == len(calls)
        assert calls == [e.data["halo"] is not None for e in decisions]

    def test_local_protocol_is_per_rank_arithmetic(
        self, snapshot, decomposition, rate_model, calls
    ):
        """The paper's local protocol: one spectrum call whose bounds are
        each rank's own solve against the mean one allreduce would share."""
        settings = OptimizerSettings(normalization="local")
        pipe = AdaptiveCompressionPipeline(rate_model, settings=settings)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert calls == [False]

        means = [f.mean_abs for f in res.features]
        global_mean = rank_order_mean(means)
        # allreduce("sum") / size: a left fold over the ranks, in order.
        assert global_mean == functools.reduce(operator.add, means) / len(means)
        want = np.array(
            [
                local_protocol_bound(f.mean_abs, global_mean, rate_model, 0.2, settings)
                for f in res.features
            ],
            dtype=np.float64,
        )
        assert res.ebs.tobytes() == want.tobytes()
        assert res.optimization.constraint == "spectrum"
        assert np.array_equal(res.optimization.ebs, res.ebs)


class TestSnapshotTask:
    def test_shape_mismatch_rejected(self, snapshot, rate_model):
        small = BlockDecomposition((16, 16, 16), blocks=2)
        with pytest.raises(ValueError, match="shape"):
            SnapshotTask(
                data=snapshot["baryon_density"],
                decomposition=small,
                eb_avg=0.2,
                rate_model=rate_model,
                compressor=SZCompressor(),
                settings=OptimizerSettings(),
            )

    def test_nonpositive_budget_rejected(self, snapshot, decomposition, rate_model):
        with pytest.raises(ValueError, match="eb_avg"):
            SnapshotTask(
                data=snapshot["baryon_density"],
                decomposition=decomposition,
                eb_avg=0.0,
                rate_model=rate_model,
                compressor=SZCompressor(),
                settings=OptimizerSettings(),
            )
