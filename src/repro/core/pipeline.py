"""The in situ adaptive compression pipeline (§3.1/§3.6).

Per snapshot and field, the protocol each rank follows is:

1. extract its partition's features (mean |value|; boundary-cell rate
   for the density field),
2. exchange one scalar per rank (``allgather`` in "exact" mode, a single
   ``allreduce`` of the mean in the paper's "local" mode),
3. evaluate the closed-form optimizer for its own bound,
4. compress its partition with that bound.

The ranks run in one process: :func:`~repro.parallel.backends.run_snapshot`
is the rank loop.  It makes exactly one
:func:`~repro.core.optimizer.optimize` call per snapshot (the function
ledger replay calls too), records per-phase timings (so the §4.3
overhead claims can be measured rather than assumed) and returns the
:class:`~repro.parallel.backends.SnapshotResult` the pipeline hands on
unchanged.  Many fields over many snapshots are
:class:`~repro.stream.controller.InSituController`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.config import HaloQualitySpec, OptimizerSettings
from repro.models.rate_model import RateModel
from repro.parallel.backends import SnapshotResult, SnapshotTask, run_snapshot
from repro.parallel.decomposition import BlockDecomposition

__all__ = ["AdaptiveCompressionPipeline", "SnapshotResult"]


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
    ) -> SnapshotResult:
        """Compress one field adaptively through the rank loop,
        :func:`~repro.parallel.backends.run_snapshot`.

        ``halo`` activates the combined §3.6 optimization (density
        fields); otherwise the spectrum constraint alone applies.
        """
        return run_snapshot(
            SnapshotTask(
                data=data,
                decomposition=decomposition,
                eb_avg=eb_avg,
                rate_model=self.rate_model,
                compressor=self.compressor,
                settings=self.settings,
                halo=halo,
            )
        )

    #: The older name of :meth:`run`, kept for callers that still use it
    #: (``bench/workloads.py``).
    run_insitu_spmd = run
