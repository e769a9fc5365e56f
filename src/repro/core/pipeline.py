"""The in situ adaptive compression pipeline (§3.1/§3.6) and its rank loop.

Per snapshot and field, the protocol each rank follows is:

1. extract its partition's features (mean |value|; boundary-cell rate
   for the density field),
2. exchange one scalar per rank (``allgather`` in "exact" mode, a single
   ``allreduce`` of the mean in the paper's "local" mode),
3. evaluate the closed-form optimizer for its own bound,
4. compress its partition with that bound.

The protocol is a property of the *decision*, not of how ranks are
scheduled, so every rank of a snapshot runs in one process:
:meth:`AdaptiveCompressionPipeline.run` is that rank loop, and the
stream controller's field step calls it too.  It makes exactly one
:func:`~repro.core.optimizer.optimize` call per snapshot (the function
ledger replay calls too), compresses the whole snapshot as one batch
through the compressor's ``compress_many``, opens a telemetry span per
phase (``features``, ``optimize``, ``compress`` under one
``backend.snapshot``; the one record of time, from which
:func:`~repro.telemetry.report.overhead_summary` reads the §4.3 overhead
ratio of an armed run) and returns a :class:`SnapshotResult`, the value
every caller up to the stream report sees.  Many fields over many snapshots are
:class:`~repro.stream.controller.InSituController`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.compression.api import (
    Compressor,
    CompressorSpec,
    decompress_many,
    resolve_compressor,
)
from repro.compression.stats import CompressionStats
from repro.compression.sz import CompressedBlock
from repro.core import optimizer
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.core.features import PartitionFeatures, extract_features
from repro.core.optimizer import OptimizationResult
from repro.models.rate_model import RateModel
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.faults import fault_point

__all__ = ["AdaptiveCompressionPipeline", "SnapshotResult"]


@dataclass
class SnapshotResult:
    """One field of one snapshot, compressed: what
    :meth:`AdaptiveCompressionPipeline.run` returns and every caller up
    to the stream report sees.

    ``features`` and ``optimization`` are empty/``None`` for results no
    optimizer produced (:class:`~repro.core.baselines.StaticBaseline`
    compresses every partition at one bound).
    """

    ebs: np.ndarray
    blocks: list[CompressedBlock]
    features: list[PartitionFeatures]
    optimization: OptimizationResult | None

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
        :meth:`AdaptiveCompressionPipeline.run` instead, which writes it
        with no decode.  Each block is decoded straight into its
        partition of one float64 field
        (:func:`~repro.compression.api.decompress_many` with ``out=``),
        with no per-partition array and no assembly copy, and dispatches
        through the compressor registry, so results from any registered
        family reconstruct.  Another ``dtype`` is a cast of that field,
        the values assembling into it would give.
        """
        field = np.empty(decomposition.shape)
        decompress_many(self.blocks, out=decomposition.partition_views(field))
        return field if np.dtype(dtype) == field.dtype else field.astype(dtype)

    def eb_map(self, decomposition: BlockDecomposition) -> np.ndarray:
        """Per-partition bounds on the block grid (Figs. 11/17)."""
        return decomposition.per_partition_map(self.ebs)


class AdaptiveCompressionPipeline:
    """Fine-grained adaptive lossy compression of partitioned snapshots.

    Parameters
    ----------
    rate_model:
        Calibrated Eq. 15 model
        (:func:`repro.models.calibration.calibrate_rate_model`).
    compressor:
        Error-bounded compressor — an instance, a
        :class:`~repro.compression.api.CompressorSpec` (or spec string)
        resolved through the registry, or ``None`` for the registry
        default (plain SZ).  The pipeline's output *is* a per-partition
        bound vector, so the compressor must declare the
        ``error_bounded`` capability; fixed-rate specs raise
        :class:`~repro.compression.api.UnsupportedCapabilityError`
        (pick them apart with
        :func:`~repro.core.selection.select_compressor` instead).
    settings:
        Optimizer knobs (clamping, normalization protocol).
    backend:
        ``None`` or ``"serial"``, the one execution path; any other
        value is a :class:`ValueError`.  Kept so callers that still
        name the path keep working.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.models.rate_model import RateModel
    >>> from repro.parallel.decomposition import BlockDecomposition
    >>> model = RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
    >>> pipe = AdaptiveCompressionPipeline(model)
    >>> data = np.random.default_rng(0).random((16, 16, 16)).astype(np.float32)
    >>> dec = BlockDecomposition((16, 16, 16), blocks=2)
    >>> result = pipe.run(data, dec, eb_avg=0.01)
    >>> len(result.blocks) == dec.n_partitions
    True
    """

    def __init__(
        self,
        rate_model: RateModel,
        compressor: "Compressor | CompressorSpec | str | None" = None,
        settings: OptimizerSettings | None = None,
        backend: str | None = None,
    ) -> None:
        if backend not in (None, "serial"):
            raise ValueError(
                f"unknown backend {backend!r}: ranks run in one process, "
                "the only path is 'serial'"
            )
        self.rate_model = rate_model
        self.compressor = resolve_compressor(compressor)
        self.compressor.capabilities.require(
            "error_bounded",
            "the adaptive pipeline (its output is a per-partition bound vector)",
            who=self.compressor,
        )
        self.settings = settings or OptimizerSettings()

    def run(
        self,
        data: np.ndarray,
        decomposition: BlockDecomposition,
        eb_avg: float,
        halo: HaloQualitySpec | None = None,
        out: np.ndarray | None = None,
    ) -> SnapshotResult:
        """Extract, optimize and compress every partition of one field:
        the rank loop.

        Feature extraction and the optimization run exactly as the in situ
        protocol prescribes (the local protocol's per-rank solves included:
        see :func:`~repro.core.optimizer.local_protocol_bound`); the one
        :func:`~repro.core.optimizer.optimize` call is the function ledger
        replay makes too.  ``halo`` activates the combined §3.6
        optimization (density fields); otherwise the spectrum constraint
        alone applies.

        ``out`` (float64, the field's shape) receives the reconstructed
        field, bit for bit :meth:`SnapshotResult.reconstruct`: its
        partition views are the ``out=`` of the compressor's
        ``compress_many``.
        """
        views = decomposition.partition_views(data)  # checks the shape
        if eb_avg <= 0:
            raise ValueError(f"eb_avg must be positive, got {eb_avg}")
        t_boundary = halo.t_boundary if halo else None
        reference_eb = halo.reference_eb if halo else 1.0
        tracer = telemetry.get_tracer()
        with tracer.span("backend.snapshot", ranks=decomposition.n_partitions):
            with tracer.span("features"):
                fault_point("backend.features")
                features = [
                    extract_features(
                        view, rank=rank, t_boundary=t_boundary,
                        reference_eb=reference_eb,
                    )
                    for rank, view in enumerate(views)
                ]
            with tracer.span("optimize"):
                opt = optimizer.optimize(
                    features, self.rate_model, eb_avg, self.settings, halo
                )
            out_views = None if out is None else decomposition.partition_views(out)
            with tracer.span("compress"):
                fault_point("backend.compress")
                blocks = self.compressor.compress_many(views, opt.ebs, out=out_views)
        return SnapshotResult(
            features=features, ebs=opt.ebs, blocks=blocks, optimization=opt
        )

    #: The older name of :meth:`run`, kept for callers that still use it
    #: (``bench/workloads.py``).
    run_insitu_spmd = run
