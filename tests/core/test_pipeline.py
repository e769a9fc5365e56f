"""The in situ adaptive pipeline end to end, and its rank loop
(:meth:`AdaptiveCompressionPipeline.run`): one execution path, the
protocol, spans, fault sites and the retired options."""

from __future__ import annotations

import functools
import importlib
import inspect
import operator

import numpy as np
import pytest

import repro.core.optimizer as optimizer_mod
from repro import telemetry
from repro.compression.api import resolve_compressor
from repro.compression.sz import SZCompressor
from repro.core.baselines import StaticBaseline
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import extract_features
from repro.core.optimizer import local_protocol_bound, optimize, rank_order_mean
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.calibration import calibrate_rate_model
from repro.models.rate_model import RateModel
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.faults import FaultPlan, InjectedCrash
from repro.telemetry.report import overhead_summary


@pytest.fixture(scope="module")
def calibrated(request):
    snapshot = request.getfixturevalue("snapshot")
    decomposition = request.getfixturevalue("decomposition")
    views = decomposition.partition_views(snapshot["baryon_density"])
    return calibrate_rate_model(views, eb_scale=0.2, seed=0)


@pytest.fixture(scope="module")
def rate_model():
    return RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)


def _halo_spec(data: np.ndarray) -> HaloQualitySpec:
    tb = float(np.percentile(np.asarray(data, dtype=np.float64), 99.0))
    return HaloQualitySpec(t_boundary=tb, mass_budget=100.0, reference_eb=0.5)


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
        """The run's time is its spans: each phase once, inside the
        snapshot span, so the §4.3 phases never outlast the run."""
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        with telemetry.armed() as tracer:
            pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        spans = tracer.export_spans()
        (snap,) = [s for s in spans if s["name"] == "backend.snapshot"]
        phases = [s for s in spans if s["parent_id"] == snap["span_id"]]
        assert [s["name"] for s in phases] == ["features", "optimize", "compress"]
        assert all(
            snap["start"] <= s["start"] <= s["end"] <= snap["end"] for s in phases
        )
        totals = overhead_summary(spans)
        assert totals["compress"] > 0
        assert sum(totals[p] for p in ("features", "optimize", "compress")) <= (
            snap["end"] - snap["start"]
        )

    def test_eb_map_shape(self, snapshot, decomposition, calibrated):
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert res.eb_map(decomposition).shape == decomposition.blocks


class TestSpmdEquivalence:
    """The rank loop in one process is the SPMD protocol: each rank's block
    is what that rank alone compresses at its bound, and the bounds are the
    one optimization over every rank's features."""

    def test_spmd_matches_serial_exact_mode(self, snapshot, decomposition, calibrated):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(data, decomposition, eb_avg=0.2)
        per_rank = [
            pipe.compressor.compress(p.view(data), float(eb))
            for p, eb in zip(decomposition, res.ebs)
        ]
        assert [b.payloads for b in res.blocks] == [b.payloads for b in per_rank]

    def test_spmd_with_halo(self, snapshot, decomposition, calibrated):
        data = snapshot["baryon_density"]
        tb = float(np.percentile(data.astype(np.float64), 99.0))
        halo = HaloQualitySpec(t_boundary=tb, mass_budget=100.0, reference_eb=0.5)
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        features = [
            extract_features(
                p.view(data), rank=p.rank, t_boundary=tb, reference_eb=0.5
            )
            for p in decomposition
        ]
        want = optimize(features, calibrated.rate_model, 0.2, pipe.settings, halo)
        assert np.array_equal(res.ebs, want.ebs)

    def test_spmd_timings_populated(self, snapshot, decomposition, calibrated):
        """Each run records its own phases: two runs under one tracer are
        two snapshot spans, each with the three phases beneath it."""
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        with telemetry.armed() as tracer:
            pipe.run(data, decomposition, eb_avg=0.2)
            pipe.run(data, decomposition, eb_avg=0.2, halo=_halo_spec(data))
        spans = tracer.export_spans()
        snaps = [s for s in spans if s["name"] == "backend.snapshot"]
        assert len(snaps) == 2
        for snap in snaps:
            assert [s["name"] for s in spans if s["parent_id"] == snap["span_id"]] == [
                "features", "optimize", "compress"
            ]
        assert overhead_summary(spans)["overhead_ratio"] > 0

    def test_spmd_returns_rank0_optimization(self, snapshot, decomposition, calibrated):
        """Regression: the SPMD path used to re-solve the optimization
        instead of returning the result its bounds came from."""
        pipe = AdaptiveCompressionPipeline(calibrated.rate_model)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert res.optimization is not None
        assert np.array_equal(res.optimization.ebs, res.ebs)

    def test_spmd_local_protocol_close(self, snapshot, decomposition, calibrated):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(
            calibrated.rate_model, settings=OptimizerSettings(normalization="local")
        )
        spmd = pipe.run(data, decomposition, eb_avg=0.2)
        assert spmd.ebs.mean() == pytest.approx(0.2, rel=0.25)


class TestOneRankLoop:
    def test_parallel_holds_only_the_decomposition(self):
        import repro.parallel

        assert repro.parallel.__all__ == ["BlockDecomposition", "Partition"]
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel.backends")
        for gone in ("SnapshotTask", "SnapshotResult", "run_snapshot"):
            assert not hasattr(repro.parallel, gone)

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


class TestRankLoop:
    """The rank loop is the in situ protocol written out by hand, byte
    for byte: per-rank features, one optimization, one batched compress."""

    @pytest.mark.parametrize("normalization", ["exact", "local"])
    @pytest.mark.parametrize("use_halo", [False, True])
    def test_is_the_protocol_by_hand(
        self, snapshot, decomposition, rate_model, normalization, use_halo,
    ):
        data = snapshot["baryon_density"]
        halo = _halo_spec(data) if use_halo else None
        pipe = AdaptiveCompressionPipeline(
            rate_model, settings=OptimizerSettings(normalization=normalization)
        )
        res = pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        views = decomposition.partition_views(data)
        features = [
            extract_features(
                view, rank=rank,
                t_boundary=halo.t_boundary if halo else None,
                reference_eb=halo.reference_eb if halo else 1.0,
            )
            for rank, view in enumerate(views)
        ]
        opt = optimize(features, rate_model, 0.2, pipe.settings, halo)
        blocks = pipe.compressor.compress_many(views, opt.ebs)
        assert res.ebs.tobytes() == opt.ebs.tobytes()
        assert [b.payloads for b in res.blocks] == [b.payloads for b in blocks]
        assert res.features == features

    @pytest.mark.parametrize(
        "spec", ["sz", "sz:codec=huffman,radius=64", "sz:mode=pw_rel", "sz_adaptive"]
    )
    @pytest.mark.parametrize("use_halo", [False, True])
    def test_out_is_the_reconstruction_bit_for_bit(
        self, snapshot, decomposition, rate_model, spec, use_halo
    ):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(rate_model, compressor=spec)
        halo = _halo_spec(data) if use_halo else None
        out = np.full(decomposition.shape, np.nan)
        res = pipe.run(data, decomposition, eb_avg=0.2, halo=halo, out=out)
        assert out.tobytes() == res.reconstruct(decomposition).tobytes()
        plain = pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        assert [b.payloads for b in res.blocks] == [b.payloads for b in plain.blocks]

    def test_spans_nest_under_the_snapshot(self, snapshot, decomposition, rate_model):
        """``bench/harness.py`` and the §4.3 report book these names."""
        pipe = AdaptiveCompressionPipeline(rate_model)
        with telemetry.armed() as tracer:
            pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        spans = tracer.export_spans()
        (root,) = [s for s in spans if s["parent_id"] is None]
        assert root["name"] == "backend.snapshot"
        assert root["attrs"] == {"ranks": decomposition.n_partitions}
        phases = [s["name"] for s in spans if s["parent_id"] == root["span_id"]]
        assert phases == ["features", "optimize", "compress"]

    def test_times_the_batched_call_the_rank_loop_makes(
        self, snapshot, decomposition, rate_model
    ):
        """The rank loop compresses through ``compress_many``: the §4.3
        denominator, its ``compress`` phase, is not a per-view loop."""

        class BatchOnly(SZCompressor):
            def compress(self, data, eb):
                raise AssertionError("the rank loop never compresses one view at a time")

        pipe = AdaptiveCompressionPipeline(rate_model, compressor=BatchOnly())
        with telemetry.armed() as tracer:
            res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert len(res.blocks) == decomposition.n_partitions
        assert overhead_summary(tracer.export_spans())["compress"] > 0

    @pytest.mark.parametrize("use_halo", [False, True])
    def test_features_phase_covers_the_boundary_feature(
        self, snapshot, decomposition, rate_model, use_halo
    ):
        """With a halo spec the ``features`` phase also counts boundary
        cells, so §4.3's boundary cost is the difference of the two runs'
        ``features`` phases."""
        data = snapshot["baryon_density"]
        res = AdaptiveCompressionPipeline(rate_model).run(
            data, decomposition, eb_avg=0.2,
            halo=_halo_spec(data) if use_halo else None,
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


class TestFaultSites:
    """``backend.features`` fires before any feature is extracted and
    ``backend.compress`` after the optimization, before any block is
    written; fault schedules and ``examples/resilient_stream.py`` name them."""

    @pytest.fixture()
    def optimized(self, monkeypatch):
        seen: list[int] = []
        real = optimizer_mod.optimize

        def counting(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer_mod, "optimize", counting)
        return seen

    @pytest.mark.parametrize(
        "site, optimizations", [("backend.features", 0), ("backend.compress", 1)]
    )
    def test_site_fires_at_its_phase(
        self, snapshot, decomposition, rate_model, optimized, site, optimizations
    ):
        pipe = AdaptiveCompressionPipeline(rate_model)
        out = np.full(decomposition.shape, np.nan)
        plan = FaultPlan().arm(site, kind="crash", at=0)
        with plan.activate(), pytest.raises(InjectedCrash, match=site):
            pipe.run(snapshot["baryon_density"], decomposition, 0.2, out=out)
        assert plan.fired(site) == 1
        assert len(optimized) == optimizations
        assert np.isnan(out).all()


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


class TestInputChecks:
    """``run`` refuses a field the decomposition does not tile and a
    non-positive budget before any phase starts."""

    def test_shape_mismatch_rejected(self, snapshot, rate_model):
        small = BlockDecomposition((16, 16, 16), blocks=2)
        with telemetry.armed() as tracer, pytest.raises(ValueError, match="shape"):
            AdaptiveCompressionPipeline(rate_model).run(
                snapshot["baryon_density"], small, eb_avg=0.2
            )
        assert tracer.export_spans() == []

    @pytest.mark.parametrize("eb_avg", [0.0, -0.2])
    def test_nonpositive_budget_rejected(
        self, snapshot, decomposition, rate_model, eb_avg
    ):
        with telemetry.armed() as tracer, pytest.raises(ValueError, match="eb_avg"):
            AdaptiveCompressionPipeline(rate_model).run(
                snapshot["baryon_density"], decomposition, eb_avg=eb_avg
            )
        assert tracer.export_spans() == []
