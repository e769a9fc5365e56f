"""The rank loop: one field of one snapshot through the in situ protocol.

The adaptive-configuration protocol is extract features -> one
collective -> closed-form optimization -> compress.  It is a property
of the *decision*, not of how ranks are scheduled, so the reproduction
runs every rank of a snapshot in one process: :func:`run_snapshot` is
that loop, and the pipeline and the stream controller both call it.
Compression goes through the batched
:meth:`~repro.compression.sz.SZCompressor.compress_many` hot path, which
fans chunks of the snapshot out over threads itself.

The result is a :class:`SnapshotResult` — the value the pipeline, the
stream controller and their callers see, unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.compression.api import Compressor, decompress_many
from repro.compression.stats import CompressionStats
from repro.compression.sz import CompressedBlock
from repro.core import optimizer
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures, extract_features
from repro.core.optimizer import OptimizationResult
from repro.models.rate_model import RateModel
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.faults import fault_point
from repro.util.timer import TimingBreakdown

__all__ = ["SnapshotTask", "SnapshotResult", "run_snapshot"]


@dataclass(frozen=True, eq=False)
class SnapshotTask:
    """One field of one snapshot plus everything needed to compress it."""

    data: np.ndarray
    decomposition: BlockDecomposition
    eb_avg: float
    rate_model: RateModel
    #: Any error-bounded compressor that went through
    #: :func:`~repro.compression.api.resolve_compressor`; the rank loop
    #: relies on the contract's ``compress_many``.
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


@dataclass
class SnapshotResult:
    """One field of one snapshot, compressed: what :func:`run_snapshot`
    returns and every caller up to the stream report sees.

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
        self, decomposition: BlockDecomposition, dtype=np.float64
    ) -> np.ndarray:
        """Decompress all partitions into the global field.

        For callers that hold the blocks and not the reconstruction (a
        result read back, a baseline scored after the fact).  Whoever
        needs the field while compressing passes ``out=`` to
        :func:`run_snapshot` instead, which writes it with no decode.
        Each block is decoded straight into its partition of one float64
        field (:func:`~repro.compression.api.decompress_many` with
        ``out=``), with no per-partition array and no assembly copy, and
        dispatches through the compressor registry, so results from any
        registered family reconstruct.  Another ``dtype`` is a cast of
        that field, the values assembling into it would give.
        """
        field = np.empty(decomposition.shape)
        decompress_many(self.blocks, out=decomposition.partition_views(field))
        return field if np.dtype(dtype) == field.dtype else field.astype(dtype)

    def eb_map(self, decomposition: BlockDecomposition) -> np.ndarray:
        """Per-partition bounds on the block grid (Figs. 11/17)."""
        return decomposition.per_partition_map(self.ebs)


def run_snapshot(task: SnapshotTask, out: np.ndarray | None = None) -> SnapshotResult:
    """Extract, optimize and compress every partition of ``task``.

    Feature extraction and the optimization run exactly as the in situ
    protocol prescribes (the local protocol's per-rank solves included:
    see :func:`~repro.core.optimizer.local_protocol_bound`); the one
    :func:`~repro.core.optimizer.optimize` call is the function ledger
    replay makes too.  Compression takes the whole snapshot as one batch.

    ``out`` (float64, the field's shape) receives the reconstructed
    field, bit for bit :meth:`SnapshotResult.reconstruct`: its partition
    views are the ``out=`` of the compressor's ``compress_many``.
    """
    timings = TimingBreakdown()
    tracer = telemetry.get_tracer()
    with tracer.span("backend.snapshot", ranks=task.n_ranks):
        with tracer.span("features"), timings.phase("features"):
            fault_point("backend.features")
            features = [task.extract(rank) for rank in range(task.n_ranks)]
        with tracer.span("optimize"), timings.phase("optimize"):
            opt = optimizer.optimize(
                features, task.rate_model, task.eb_avg, task.settings, task.halo
            )
        views = task.decomposition.partition_views(task.data)
        out_views = None if out is None else task.decomposition.partition_views(out)
        with tracer.span("compress"), timings.phase("compress"):
            fault_point("backend.compress")
            blocks = task.compressor.compress_many(views, opt.ebs, out=out_views)
    return SnapshotResult(
        features=features, ebs=opt.ebs, blocks=blocks, optimization=opt,
        timings=timings,
    )
