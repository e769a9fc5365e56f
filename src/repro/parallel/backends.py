"""Execution backends for the in situ pipeline.

The adaptive-configuration protocol (extract features -> one collective
-> closed-form optimization -> compress) is independent of *how* the
ranks execute.  Two :class:`ExecutionBackend`\\ s run it:

- :class:`SerialBackend` — the reference rank loop in one thread,
- :class:`ProcessBackend` — a ``ProcessPoolExecutor`` fan-out with the
  snapshot staged once in POSIX shared memory; workers attach views and
  compress *batches* of partitions per task, escaping the GIL entirely.

Both produce byte-identical compressed payloads and identical bounds for
the same :class:`SnapshotTask` (property-tested); they differ only in
scheduling.  Per-phase :class:`TimingBreakdown`\\ s are merged across
workers, so the §4.3 overhead accounting works on either path.  Per-worker
busy time is *summed* — totals are aggregate seconds of work, the right
denominator for overhead ratios, not wall-clock.

Every backend returns the same :class:`SnapshotResult` — the value the
pipeline, the stream controller and their callers see, unwrapped.

A backend is chosen once, at construction: ``backend=`` (a name in
:data:`BACKENDS`, ``"serial"`` or ``"process"``, or an instance) on
``AdaptiveCompressionPipeline`` and ``InSituController``, or the CLI's
``--backend`` flag; all three default to ``serial``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import Any, ClassVar

import numpy as np

from repro import telemetry
from repro.compression.api import Compressor, decompress_many
from repro.compression.stats import CompressionStats
from repro.compression.sz import CompressedBlock
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures, extract_features
from repro.core.optimizer import (
    OptimizationResult,
    optimize_combined,
    optimize_for_spectrum,
)
from repro.models.rate_model import RateModel
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.util.fanout import usable_cpus
from repro.util.timer import Timer, TimingBreakdown

__all__ = [
    "SnapshotTask",
    "SnapshotResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "get_backend",
]


@dataclass(frozen=True, eq=False)
class SnapshotTask:
    """One field of one snapshot plus everything needed to compress it."""

    data: np.ndarray
    decomposition: BlockDecomposition
    eb_avg: float
    rate_model: RateModel
    #: Any error-bounded compressor that went through
    #: :func:`~repro.compression.api.resolve_compressor`; the backends
    #: rely on the contract's ``compress``/``compress_many``.
    compressor: Compressor
    settings: OptimizerSettings
    halo: HaloQualitySpec | None = None

    def __post_init__(self) -> None:
        if tuple(self.data.shape) != self.decomposition.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"decomposition {self.decomposition.shape}"
            )
        if self.eb_avg <= 0:
            raise ValueError(f"eb_avg must be positive, got {self.eb_avg}")

    @property
    def n_ranks(self) -> int:
        return self.decomposition.n_partitions

    def extract(self, rank: int) -> PartitionFeatures:
        """Extract rank's in situ features (halo feature if configured)."""
        view = self.decomposition[rank].view(self.data)
        return extract_features(
            view,
            rank=rank,
            t_boundary=self.halo.t_boundary if self.halo else None,
            reference_eb=self.halo.reference_eb if self.halo else 1.0,
        )

    def optimize(self, features: list[PartitionFeatures]) -> OptimizationResult:
        """The one global optimization over all ranks' features."""
        if self.halo is not None:
            return optimize_combined(
                features, self.rate_model, self.eb_avg, self.halo, self.settings
            )
        return optimize_for_spectrum(
            features, self.rate_model, self.eb_avg, self.settings
        )


@dataclass
class SnapshotResult:
    """One field of one snapshot, compressed: what every backend returns
    and every caller up to the stream report sees.

    ``features`` and ``optimization`` are empty/``None`` for results no
    optimizer produced (:class:`~repro.core.baselines.StaticBaseline`
    compresses every partition at one bound).
    """

    ebs: np.ndarray
    blocks: list[CompressedBlock]
    features: list[PartitionFeatures]
    optimization: OptimizationResult | None
    timings: TimingBreakdown = field(repr=False, default_factory=TimingBreakdown)

    @property
    def stats(self) -> CompressionStats:
        return CompressionStats.from_blocks(self.blocks)

    @property
    def overall_ratio(self) -> float:
        return self.stats.overall_ratio

    @property
    def overall_bit_rate(self) -> float:
        return self.stats.overall_bit_rate

    def reconstruct(
        self, decomposition: BlockDecomposition, dtype=np.float64, threads: int | None = None
    ) -> np.ndarray:
        """Decompress all partitions and reassemble the global field.

        Blocks dispatch through the compressor registry
        (:func:`~repro.compression.api.decompress_many`), so results from
        any registered family reconstruct; ``threads`` is its decode
        fan-out (pass ``1`` from inside a process-pool worker).
        """
        return decomposition.assemble(decompress_many(self.blocks, threads), dtype=dtype)

    def eb_map(self, decomposition: BlockDecomposition) -> np.ndarray:
        """Per-partition bounds on the block grid (Figs. 11/17)."""
        return decomposition.per_partition_map(self.ebs)


class ExecutionBackend(ABC):
    """Strategy interface: execute one :class:`SnapshotTask`."""

    name: ClassVar[str] = "abstract"

    @abstractmethod
    def run_snapshot(self, task: SnapshotTask) -> SnapshotResult:
        """Extract, optimize and compress every partition of ``task``."""

    @property
    def parallelism(self) -> int:
        """How many :meth:`map_tasks` items can usefully run at once."""
        return 1

    def map_tasks(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item of ``items``, preserving order.

        Generic fan-out hook for embarrassingly parallel work outside
        the snapshot protocol — e.g. independent ``(field, eb)`` quality
        evaluations of a sweep.  The default runs serially in the
        calling thread; parallel backends override it.  Backends that
        ship work to other *processes* require ``fn`` and every item to
        be picklable.
        """
        return [fn(item) for item in items]

    def close(self) -> None:
        """Release any pooled resources (idempotent; default no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Reference implementation: a rank loop in the calling thread.

    Feature extraction and the optimization run exactly as the in situ
    protocol prescribes (the local protocol's per-rank solves included:
    see :func:`~repro.core.optimizer.local_protocol_bound`); compression
    goes through the batched
    :meth:`~repro.compression.sz.SZCompressor.compress_many` hot path
    with the whole snapshot as one batch.
    """

    name = "serial"

    def run_snapshot(self, task: SnapshotTask) -> SnapshotResult:
        timings = TimingBreakdown()
        tracer = telemetry.get_tracer()
        with tracer.span("backend.snapshot", backend=self.name, ranks=task.n_ranks):
            with tracer.span("features"), timings.phase("features"):
                fault_point("backend.features")
                features = [task.extract(rank) for rank in range(task.n_ranks)]
            with tracer.span("optimize"), timings.phase("optimize"):
                opt = task.optimize(features)
            views = task.decomposition.partition_views(task.data)
            with tracer.span("compress"), timings.phase("compress"):
                fault_point("backend.compress")
                blocks = task.compressor.compress_many(views, opt.ebs)
        return SnapshotResult(
            features=features, ebs=opt.ebs, blocks=blocks, optimization=opt,
            timings=timings,
        )


# -- process backend ---------------------------------------------------------

#: Per-worker compressor cache, keyed by the pickled compressor:
#: deserializing the quantize/codec pipeline once per (worker, config)
#: amortizes setup across every batch the worker handles.  Shipping the
#: instance itself (not a name-based config) preserves codec state such
#: as compression levels, keeping worker output byte-identical to the
#: serial path.
_WORKER_COMPRESSORS: dict[bytes, Compressor] = {}


def _pooled_compressor(blob: bytes) -> Compressor:
    comp = _WORKER_COMPRESSORS.get(blob)
    if comp is None:
        comp = pickle.loads(blob)
        _WORKER_COMPRESSORS[blob] = comp
    return comp


#: Whether this worker process owns a private resource tracker (spawn
#: start method) rather than sharing the parent's via fork.  Decided on
#: the first shared-memory attach and fixed for the process lifetime.
_TRACKER_OWNED: bool | None = None


def _attach_shm(name: str, shape: tuple[int, ...], dtype: str):
    global _TRACKER_OWNED
    if _TRACKER_OWNED is None:
        try:
            from multiprocessing.resource_tracker import _resource_tracker

            # A live tracker fd before our first attach means it was
            # inherited from the parent (fork); a dead one means our
            # register below will lazily start a tracker we own.
            _TRACKER_OWNED = getattr(_resource_tracker, "_fd", None) is None
        except (ImportError, AttributeError):  # pragma: no cover - tracker layout differs
            _TRACKER_OWNED = False
    shm = shared_memory.SharedMemory(name=name)
    try:
        return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    except BaseException:
        # The ndarray view is what pins the attachment for the caller's
        # try/finally; if constructing it fails the segment would leak
        # with no handle left to release it.
        _release_shm(shm)
        raise


def _release_shm(shm: shared_memory.SharedMemory) -> None:
    """Close a worker-side attachment without poisoning the tracker.

    On POSIX, *attaching* registers the segment with the resource
    tracker just like creating it does.  Under fork the tracker is
    shared with the parent and registration is set-idempotent, so the
    parent's unlink retires the entry and workers must NOT unregister
    (doing so would unbalance the parent's final unregister).  Under
    spawn each worker owns a private tracker that would warn about
    "leaked" segments at exit, so there the registration is retracted.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a stray view pins the mmap
        pass
    if _TRACKER_OWNED:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except (ImportError, AttributeError, OSError):  # pragma: no cover - tracker layout differs
            pass


def _worker_tracing(export: bool):
    """Arm a fresh worker-local tracer when the parent asked for spans.

    The worker's clock epoch differs from the parent's (``perf_counter``
    is per-process), so the exported records are rebased by the parent's
    :meth:`~repro.telemetry.tracer.Tracer.adopt`.
    """
    if export:
        return telemetry.arm(track=f"worker-{os.getpid()}")
    return telemetry.get_tracer()


def _features_task(
    shm_name: str,
    shape: tuple[int, ...],
    dtype: str,
    items: list[tuple[int, tuple[slice, ...]]],
    halo_args: tuple[float, float] | None,
    export_telemetry: bool = False,
) -> tuple[list[PartitionFeatures], float, list[dict]]:
    """Pool worker: features for a batch of partitions (rank, slices)."""
    shm, arr = _attach_shm(shm_name, shape, dtype)
    try:
        fault_point("backend.features")
        t_boundary, reference_eb = halo_args if halo_args else (None, 1.0)
        tracer = _worker_tracing(export_telemetry)
        try:
            with tracer.span("features", ranks=[r for r, _ in items]):
                with Timer() as timer:
                    feats = [
                        extract_features(
                            arr[slices], rank=rank, t_boundary=t_boundary,
                            reference_eb=reference_eb,
                        )
                        for rank, slices in items
                    ]
            spans = tracer.export_spans() if export_telemetry else []
        finally:
            if export_telemetry:
                telemetry.disarm()
        return feats, timer.elapsed, spans
    finally:
        del arr
        _release_shm(shm)


def _compress_task(
    shm_name: str,
    shape: tuple[int, ...],
    dtype: str,
    items: list[tuple[tuple[slice, ...], float]],
    compressor_blob: bytes,
    export_telemetry: bool = False,
) -> tuple[list[CompressedBlock], float, list[dict]]:
    """Pool worker: compress a batch of partitions (slices, eb)."""
    shm, arr = _attach_shm(shm_name, shape, dtype)
    try:
        fault_point("backend.compress")
        comp = _pooled_compressor(compressor_blob)
        tracer = _worker_tracing(export_telemetry)
        try:
            with tracer.span("compress", blocks=len(items)):
                with Timer() as timer:
                    # One worker process per core already: pin the
                    # compressor's fan-out to this thread, whose arena
                    # serves every batch the worker ever sees.
                    blocks = comp.compress_many(
                        [arr[slices] for slices, _ in items],
                        [eb for _, eb in items],
                        threads=1,
                    )
            spans = tracer.export_spans() if export_telemetry else []
        finally:
            if export_telemetry:
                telemetry.disarm()
        return blocks, timer.elapsed, spans
    finally:
        del arr
        _release_shm(shm)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution with shared-memory partition views.

    The snapshot is staged once into a POSIX shared-memory segment;
    workers attach zero-copy NumPy views of their partitions, so fan-out
    cost is one copy of the field regardless of rank count.  Partitions
    are compressed in *batches* (many per task), amortizing task
    dispatch and compressor setup, with the optimization solved exactly
    once in the parent.  This is the only backend that escapes the GIL
    for the pure-Python parts of the hot path.

    Parameters
    ----------
    max_workers:
        Pool size (default: :func:`~repro.util.fanout.usable_cpus`
        capped at 8).
    batch_size:
        Partitions per task (default: ranks split into ~2 waves per
        worker, balancing amortization against load balance).
    start_method:
        Multiprocessing start method; default prefers ``fork`` where
        available (cheap startup), else the platform default.  ``spawn``
        workers re-import :mod:`repro`, so the package must be on the
        workers' ``PYTHONPATH``.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` governing
        batch re-execution.  With a policy, a failed batch whose error
        the policy classifies as retryable is re-submitted under the
        policy's attempt budget; a ``BrokenProcessPool`` (worker killed
        by a signal or the OOM killer) additionally discards and
        rebuilds the pool first.  Only the failed batches re-run — the
        snapshot's shared-memory segment lives in the parent and
        survives the pool, so completed batches are never recomputed.
        ``None`` (default) preserves fail-fast semantics.
    on_retry:
        Optional ``(site, attempt, exc, delay)`` callback invoked for
        every batch retry — how the stream controller accounts backend
        retries in its report.  :attr:`n_retries` counts them either
        way.

    The worker pool is created lazily and reused across snapshots and
    fields; call :meth:`close` (or use the backend as a context manager)
    to release it.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        batch_size: int | None = None,
        start_method: str | None = None,
        retry_policy: RetryPolicy | None = None,
        on_retry: Callable[[str, int, BaseException, float], Any] | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if start_method is not None and start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"start_method must be one of {mp.get_all_start_methods()}, "
                f"got {start_method!r}"
            )
        self.max_workers = max_workers or min(usable_cpus(), 8)
        self.batch_size = batch_size
        self.start_method = start_method
        self.retry_policy = retry_policy
        self.on_retry = on_retry
        self.n_retries = 0
        self.n_pool_rebuilds = 0
        self._pool: ProcessPoolExecutor | None = None

    # -- pool management -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.start_method is not None:
                ctx = mp.get_context(self.start_method)
            elif "fork" in mp.get_all_start_methods():
                ctx = mp.get_context("fork")
            else:  # pragma: no cover - non-POSIX platforms
                ctx = mp.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=ctx
            )
        return self._pool

    def close(self) -> None:
        # Clear the reference before shutdown: if shutdown raises (e.g.
        # on an already-broken pool), a second close() must still be a
        # no-op rather than re-raising forever.
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next batch gets a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self.n_pool_rebuilds += 1
            if telemetry.enabled():
                telemetry.get_registry().counter("resilience.pool_rebuilds").inc()
            pool.shutdown(wait=False, cancel_futures=True)

    @property
    def parallelism(self) -> int:
        return self.max_workers

    def map_tasks(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Fan items out over the (lazily created, reused) worker pool.

        ``fn`` and the items cross a process boundary, so both must be
        picklable — module-level functions and plain data only.
        """
        items = list(items)
        if not items:
            return []
        return list(self._ensure_pool().map(fn, items))

    def __repr__(self) -> str:
        return (
            f"ProcessBackend(max_workers={self.max_workers}, "
            f"batch_size={self.batch_size})"
        )

    # -- execution -------------------------------------------------------

    def _batches(self, n: int) -> list[list[int]]:
        size = self.batch_size or max(1, math.ceil(n / (2 * self.max_workers)))
        return [list(range(i, min(i + size, n))) for i in range(0, n, size)]

    @staticmethod
    def _serialize_compressor(comp: Compressor) -> bytes:
        """Pickle the compressor verbatim so workers reproduce its output
        byte for byte (codec levels and custom codecs included)."""
        try:
            return pickle.dumps(comp)
        except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"ProcessBackend requires a picklable compressor; "
                f"{comp!r} cannot be serialized for the worker pool"
            ) from exc

    # -- batch retry -----------------------------------------------------

    def _note_retry(
        self, site: str, attempt: int, exc: BaseException, delay: float
    ) -> None:
        self.n_retries += 1
        if telemetry.enabled():
            telemetry.get_registry().counter("resilience.backend_retries").inc()
        if self.on_retry is not None:
            self.on_retry(site, attempt, exc, delay)

    @staticmethod
    def _adopt_worker_spans(tracer, parent_span, spans: list[dict]) -> None:
        """Merge a worker batch's exported spans under the snapshot span,
        rebased to its clock (worker ``perf_counter`` epochs differ)."""
        if spans:
            tracer.adopt(
                spans,
                parent_id=parent_span.span_id,
                rebase_to=parent_span.start,
                track="worker",
            )

    def _run_batch(self, task_fn: Callable[..., Any], args: tuple) -> Any:
        """Re-execute one batch on a (possibly rebuilt) pool."""
        pool = self._ensure_pool()
        try:
            return pool.submit(task_fn, *args).result()
        except BrokenProcessPool:
            self._discard_pool()
            raise

    def _submit_all(
        self,
        task_fn: Callable[..., Any],
        args_list: list[tuple],
        pending: list[Future],
    ) -> list[Future]:
        """Submit one task per batch, tolerating a pool that breaks
        mid-loop: a failed ``submit`` becomes a pre-failed future (so
        :meth:`_collect` retries that batch like any other failure) and
        the remaining batches go to a rebuilt pool.
        """
        futures: list[Future] = []
        for args in args_list:
            try:
                fut = self._ensure_pool().submit(task_fn, *args)
            except BrokenProcessPool as exc:
                self._discard_pool()
                fut = Future()
                fut.set_exception(exc)
            futures.append(fut)
            pending.append(fut)
        return futures

    def _collect(
        self, fut: Future, site: str, task_fn: Callable[..., Any], args: tuple
    ) -> Any:
        """Await one batch future; on retryable failure, re-run the batch
        under the retry policy (rebuilding the pool if it broke).

        The initial submission already spent attempt 1, so the retry
        budget handed to :meth:`RetryPolicy.execute` is ``max_attempts -
        1`` — total executions never exceed the policy's budget.  A
        ``BrokenProcessPool`` fails every in-flight batch at once; each
        is collected here in turn and only those batches re-run — the
        shared-memory segment is owned by the parent, so completed work
        survives the pool.
        """
        try:
            return fut.result()
        except BaseException as exc:
            policy = self.retry_policy
            if policy is None or not policy.is_retryable(exc):
                raise
            if isinstance(exc, BrokenProcessPool):
                self._discard_pool()
            if policy.max_attempts <= 1:
                raise
            self._note_retry(site, 1, exc, 0.0)
            budget = replace(policy, max_attempts=policy.max_attempts - 1)
            return budget.execute(
                lambda: self._run_batch(task_fn, args),
                site=site,
                on_retry=self._note_retry,
            )

    def run_snapshot(self, task: SnapshotTask) -> SnapshotResult:
        dec = task.decomposition
        n = task.n_ranks
        timings = TimingBreakdown()
        tracer = telemetry.get_tracer()
        export_spans = telemetry.enabled()
        compressor_blob = self._serialize_compressor(task.compressor)
        halo_args = (
            (task.halo.t_boundary, task.halo.reference_eb) if task.halo else None
        )
        self._ensure_pool()
        batches = self._batches(n)
        data = np.asarray(task.data)

        shm = None
        shared = None
        pending: list[Future] = []
        snapshot_span = tracer.span(
            "backend.snapshot", backend=self.name, ranks=n, batches=len(batches)
        )
        try:
            with snapshot_span:
                with tracer.span("scatter"), timings.phase("scatter"):
                    shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
                    shared = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
                    np.copyto(shared, data)
                meta = (shm.name, tuple(data.shape), data.dtype.str)

                feat_args = [
                    (*meta, [(r, dec[r].slices) for r in ranks], halo_args,
                     export_spans)
                    for ranks in batches
                ]
                futures = self._submit_all(_features_task, feat_args, pending)
                features: list[PartitionFeatures] = [None] * n  # type: ignore[list-item]
                for ranks, fut, args in zip(batches, futures, feat_args):
                    feats, seconds, spans = self._collect(
                        fut, "backend.features", _features_task, args
                    )
                    timings.add("features", seconds)
                    self._adopt_worker_spans(tracer, snapshot_span, spans)
                    for rank, feat in zip(ranks, feats):
                        features[rank] = feat

                with tracer.span("optimize"), timings.phase("optimize"):
                    opt = task.optimize(features)

                comp_args = [
                    (
                        *meta,
                        [(dec[r].slices, float(opt.ebs[r])) for r in ranks],
                        compressor_blob,
                        export_spans,
                    )
                    for ranks in batches
                ]
                futures = self._submit_all(_compress_task, comp_args, pending)
                blocks: list[CompressedBlock] = [None] * n  # type: ignore[list-item]
                for ranks, fut, args in zip(batches, futures, comp_args):
                    blks, seconds, spans = self._collect(
                        fut, "backend.compress", _compress_task, args
                    )
                    timings.add("compress", seconds)
                    self._adopt_worker_spans(tracer, snapshot_span, spans)
                    for rank, block in zip(ranks, blks):
                        blocks[rank] = block
        finally:
            # On error, outstanding batches must not outlive the segment:
            # cancel the queued ones, drain the running ones, and retrieve
            # their exceptions so no "never retrieved" noise obscures the
            # original failure.  Happy path: everything is done, no-op.
            for fut in pending:
                fut.cancel()
            not_cancelled = [f for f in pending if not f.cancelled()]
            if not_cancelled:
                futures_wait(not_cancelled)
                for fut in not_cancelled:
                    fut.exception()
            if shm is not None:
                del shared
                try:
                    shm.close()
                finally:
                    # unlink even when close() raises (a pinned view):
                    # the name must not leak a segment past the run.
                    shm.unlink()

        return SnapshotResult(
            features=features, ebs=opt.ebs, blocks=blocks, optimization=opt,
            timings=timings,
        )


#: The two backends, by the name ``backend=`` and ``--backend`` take.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def get_backend(
    spec: "str | ExecutionBackend | None" = None, **kwargs: Any
) -> ExecutionBackend:
    """Resolve a backend: instance passthrough, name, or default.

    ``None`` resolves to the default :class:`SerialBackend`.  Keyword
    arguments are forwarded to the backend constructor (names only).
    """
    if spec is None:
        spec = SerialBackend.name
    if isinstance(spec, ExecutionBackend):
        if kwargs:
            raise ValueError("cannot pass constructor kwargs with a backend instance")
        return spec
    if isinstance(spec, str):
        try:
            cls = BACKENDS[spec]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; choose one of {sorted(BACKENDS)}"
            ) from None
        return cls(**kwargs)
    raise TypeError(f"backend must be a name, instance or None, got {type(spec)!r}")
