"""Execution-backend layer: registry, equivalence, timings, batching."""

from __future__ import annotations

import functools
import multiprocessing as mp
import operator
import os

import numpy as np
import pytest

import repro.core.optimizer as optimizer_mod
from repro.compression.sz import SZCompressor
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.optimizer import local_protocol_bound, rank_order_mean
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.rate_model import RateModel
from repro.parallel.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    SnapshotTask,
    get_backend,
)
from repro.parallel.decomposition import BlockDecomposition


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessBackend(max_workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def rate_model():
    return RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)


def _halo_spec(data: np.ndarray) -> HaloQualitySpec:
    tb = float(np.percentile(np.asarray(data, dtype=np.float64), 99.0))
    return HaloQualitySpec(t_boundary=tb, mass_budget=100.0, reference_eb=0.5)


class TestRegistry:
    def test_two_backends(self):
        assert sorted(BACKENDS) == ["process", "serial"]

    def test_builtins_registered(self):
        assert BACKENDS == {"serial": SerialBackend, "process": ProcessBackend}
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_default_is_serial(self):
        assert isinstance(get_backend(None), SerialBackend)
        model = RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
        assert isinstance(AdaptiveCompressionPipeline(model).backend, SerialBackend)

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(ValueError, match="kwargs"):
            get_backend(SerialBackend(), max_workers=2)

    def test_kwargs_forwarded(self):
        backend = get_backend("process", max_workers=3, batch_size=2)
        assert backend.max_workers == 3
        assert backend.batch_size == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    @pytest.mark.parametrize("front", ["pipeline", "controller", "sweep"])
    def test_thread_is_unknown_everywhere(self, rate_model, decomposition, front):
        """The retired thread backend fails in one place, ``get_backend``,
        whichever front names it."""
        from repro.foresight import QualityCriteria, run_sweep
        from repro.stream import InSituController

        fronts = {
            "pipeline": lambda: AdaptiveCompressionPipeline(rate_model, backend="thread"),
            "controller": lambda: InSituController(decomposition, backend="thread"),
            "sweep": lambda: run_sweep(
                {"f": np.ones(decomposition.shape)},
                [0.1],
                {"f": QualityCriteria()},
                decomposition=decomposition,
                backend="thread",
            ),
        }
        with pytest.raises(ValueError, match=r"\['process', 'serial'\]"):
            fronts[front]()

    def test_bad_type(self):
        with pytest.raises(TypeError, match="backend"):
            get_backend(42)


class TestBackendEquivalence:
    """Serial and process backends must agree byte for byte."""

    @pytest.mark.parametrize("normalization", ["exact", "local"])
    @pytest.mark.parametrize("use_halo", [False, True])
    def test_byte_identical_blocks_and_ebs(
        self, snapshot, decomposition, rate_model, process_backend,
        normalization, use_halo,
    ):
        data = snapshot["baryon_density"]
        halo = _halo_spec(data) if use_halo else None
        pipe = AdaptiveCompressionPipeline(
            rate_model, settings=OptimizerSettings(normalization=normalization)
        )
        serial = pipe.run(data, decomposition, eb_avg=0.2, halo=halo)
        process = AdaptiveCompressionPipeline(
            rate_model, settings=pipe.settings, backend=process_backend
        ).run(data, decomposition, eb_avg=0.2, halo=halo)
        assert np.array_equal(serial.ebs, process.ebs)
        assert len(serial.blocks) == len(process.blocks)
        for a, b in zip(serial.blocks, process.blocks):
            assert a.shape == b.shape
            assert a.eb == b.eb
            assert a.payloads == b.payloads  # byte-identical payloads
        assert [f.mean_abs for f in serial.features] == [
            f.mean_abs for f in process.features
        ]

    def test_all_backends_report_timings(
        self, snapshot, decomposition, rate_model, process_backend
    ):
        data = snapshot["baryon_density"]
        for backend in (SerialBackend(), process_backend):
            pipe = AdaptiveCompressionPipeline(rate_model, backend=backend)
            res = pipe.run(data, decomposition, eb_avg=0.2)
            assert set(res.timings.totals) >= {"features", "optimize", "compress"}
            assert res.timings.totals["compress"] > 0
            assert res.timings.overhead_ratio("features", "compress") >= 0


class TestSingleOptimization:
    """Every decision goes through :func:`repro.core.optimizer.optimize`
    exactly once: one call per snapshot on either backend, one per
    decision when a ledger replays."""

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

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_exact_mode_optimizes_once(
        self, snapshot, decomposition, rate_model, calls, process_backend, backend
    ):
        resolved = process_backend if backend == "process" else backend
        pipe = AdaptiveCompressionPipeline(rate_model, backend=resolved)
        pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert calls == [False]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_halo_mode_optimizes_once(
        self, snapshot, decomposition, rate_model, calls, process_backend, backend
    ):
        data = snapshot["baryon_density"]
        resolved = process_backend if backend == "process" else backend
        pipe = AdaptiveCompressionPipeline(rate_model, backend=resolved)
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
        """The paper's local protocol on the serial path: one spectrum
        call whose bounds are each rank's own solve against the mean one
        allreduce would share."""
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


class TestProcessBackend:
    def test_batch_size_does_not_change_results(
        self, snapshot, decomposition, rate_model
    ):
        data = snapshot["baryon_density"]
        pipe = AdaptiveCompressionPipeline(rate_model)
        reference = pipe.run(data, decomposition, eb_avg=0.2)
        for batch_size in (1, 3, 64):
            with AdaptiveCompressionPipeline(
                rate_model, backend=ProcessBackend(max_workers=2, batch_size=batch_size)
            ) as batched:
                res = batched.run(data, decomposition, eb_avg=0.2)
            assert np.array_equal(reference.ebs, res.ebs)
            assert all(
                a.payloads == b.payloads
                for a, b in zip(reference.blocks, res.blocks)
            )

    def test_pool_is_reused_across_snapshots(self, snapshot, decomposition, rate_model):
        backend = ProcessBackend(max_workers=2)
        with AdaptiveCompressionPipeline(rate_model, backend=backend) as pipe:
            pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
            pool = backend._pool
            pipe.run(snapshot["temperature"], decomposition, eb_avg=5.0)
            assert backend._pool is pool
        assert backend._pool is None  # closed by the context manager

    def test_codec_configuration_reaches_workers(
        self, snapshot, decomposition, rate_model
    ):
        """Regression: workers must reproduce the exact codec state
        (e.g. zlib level), not a name-based default reconstruction."""
        from repro.compression.codecs import ZlibCodec

        data = snapshot["baryon_density"]
        for level in (1, 9):
            comp = SZCompressor(codec=ZlibCodec(level=level))
            serial = AdaptiveCompressionPipeline(rate_model, compressor=comp).run(
                data, decomposition, eb_avg=0.2
            )
            with AdaptiveCompressionPipeline(
                rate_model, compressor=comp, backend=ProcessBackend(max_workers=2)
            ) as pipe:
                process = pipe.run(data, decomposition, eb_avg=0.2)
            assert all(
                a.payloads == b.payloads
                for a, b in zip(serial.blocks, process.blocks)
            )

    def test_unpicklable_compressor_rejected(
        self, snapshot, decomposition, rate_model, process_backend
    ):
        comp = SZCompressor()
        comp.codec.unpicklable = lambda: None  # closure defeats pickling
        pipe = AdaptiveCompressionPipeline(
            rate_model, compressor=comp, backend=process_backend
        )
        with pytest.raises(ValueError, match="picklable"):
            pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)

    def test_close_releases_the_constructor_backend(
        self, snapshot, decomposition, rate_model
    ):
        """The backend is chosen once, at construction; the pipeline's
        ``close()`` (or context manager) is what releases it."""
        closed = []

        class Recording(SerialBackend):
            def close(self):
                closed.append(True)
                super().close()

        with AdaptiveCompressionPipeline(rate_model, backend=Recording()) as pipe:
            pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
            assert closed == []
        assert closed == [True]

    def test_run_leaves_the_pool_open(
        self, snapshot, decomposition, rate_model, process_backend
    ):
        pipe = AdaptiveCompressionPipeline(rate_model, backend=process_backend)
        pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert process_backend._pool is not None  # pooled workers survive a run

    def test_no_per_call_backend(self):
        import inspect

        params = inspect.signature(AdaptiveCompressionPipeline.run).parameters
        assert "backend" not in params
        assert AdaptiveCompressionPipeline.run_insitu_spmd is AdaptiveCompressionPipeline.run

    def test_run_uses_the_constructor_backend(
        self, snapshot, decomposition, rate_model, process_backend
    ):
        pipe = AdaptiveCompressionPipeline(rate_model, backend=process_backend)
        res = pipe.run(snapshot["baryon_density"], decomposition, eb_avg=0.2)
        assert "scatter" in res.timings.totals  # only the process backend stages

    def test_worker_failure_propagates_and_cleans_up(
        self, snapshot, decomposition, rate_model
    ):
        """A failing worker batch must surface its error after the queued
        batches are drained and the shared segment is unlinked."""
        data = np.asarray(snapshot["baryon_density"], dtype=np.float64).copy()
        data[0, 0, 0] = -1.0  # pw_rel compression rejects non-positive data
        with AdaptiveCompressionPipeline(
            rate_model,
            compressor=SZCompressor(mode="pw_rel"),
            backend=ProcessBackend(max_workers=1, batch_size=1),
        ) as pipe:
            with pytest.raises(ValueError, match="positive"):
                pipe.run(data, decomposition, eb_avg=0.01)
            # The pool survives the failure and stays usable.
            ok = pipe.run(np.abs(data) + 1.0, decomposition, eb_avg=0.01)
            assert len(ok.blocks) == decomposition.n_partitions
        leftover = [p for p in os.listdir("/dev/shm") if p.startswith("psm_")] if os.path.isdir("/dev/shm") else []
        assert leftover == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessBackend(max_workers=0)
        with pytest.raises(ValueError, match="batch_size"):
            ProcessBackend(batch_size=0)
        with pytest.raises(ValueError, match="start_method"):
            ProcessBackend(start_method="frok")

    @pytest.mark.parametrize("method", mp.get_all_start_methods())
    def test_accepts_every_platform_start_method(self, method):
        backend = ProcessBackend(start_method=method)
        assert backend.start_method == method
        assert backend._pool is None  # validated without starting a pool

    def test_batches_cover_all_ranks(self):
        backend = ProcessBackend(max_workers=2, batch_size=3)
        batches = backend._batches(8)
        assert [len(b) for b in batches] == [3, 3, 2]
        assert sorted(r for b in batches for r in b) == list(range(8))


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


def _square(x: int) -> int:
    """Module-level so ProcessBackend.map_tasks can pickle it."""
    return x * x


class TestMapTasks:
    def test_serial_default_is_ordered_loop(self):
        backend = SerialBackend()
        assert backend.parallelism == 1
        assert backend.map_tasks(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_process_backend_preserves_order(self, process_backend):
        assert process_backend.parallelism == 2
        assert process_backend.map_tasks(_square, range(9)) == [
            x * x for x in range(9)
        ]

    def test_process_backend_empty_items(self, process_backend):
        assert process_backend.map_tasks(_square, []) == []

    def test_process_backend_single_item(self, process_backend):
        assert process_backend.map_tasks(_square, [7]) == [49]

    def test_every_registered_backend_agrees(self):
        want = [x * x for x in range(5)]
        for name in sorted(BACKENDS):
            with get_backend(name) as backend:
                assert backend.map_tasks(_square, range(5)) == want
