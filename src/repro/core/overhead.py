"""Overhead accounting for the §4.3 performance claims.

The paper reports: computing per-partition means costs ~1-1.5% of
compression time on CPUs; counting effective (boundary) cells for the
density field adds up to 5%; the one collective is negligible.  This
module measures those same ratios on the local machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.api import Compressor, CompressorSpec, resolve_compressor
from repro.core.features import extract_features
from repro.core.optimizer import optimize
from repro.models.rate_model import RateModel
from repro.parallel.decomposition import BlockDecomposition
from repro.util.timer import Timer

__all__ = ["OverheadReport", "measure_overhead"]


@dataclass
class OverheadReport:
    """Wall-clock phase totals (seconds) and the derived ratios."""

    feature_time: float
    boundary_time: float
    optimize_time: float
    compress_time: float

    @property
    def feature_overhead(self) -> float:
        """Mean-extraction time as a fraction of compression time."""
        return self.feature_time / self.compress_time

    @property
    def boundary_overhead(self) -> float:
        """Boundary-cell counting time as a fraction of compression time."""
        return self.boundary_time / self.compress_time

    @property
    def total_overhead(self) -> float:
        return (
            self.feature_time + self.boundary_time + self.optimize_time
        ) / self.compress_time


def measure_overhead(
    data: np.ndarray,
    decomposition: BlockDecomposition,
    eb: float,
    compressor: "Compressor | CompressorSpec | str | None" = None,
    t_boundary: float | None = None,
    repeats: int = 3,
) -> OverheadReport:
    """Measure feature-extraction overhead relative to compression.

    Phases are timed separately over ``repeats`` passes (minimum taken,
    standard practice for wall-clock micro-measurements); compression is
    one ``compress_many`` call and the optimization one
    :func:`~repro.core.optimizer.optimize` call, as the rank loop runs them.
    ``compressor`` is registry-resolvable (instance, spec, spec string or
    ``None`` for the SZ default), so the §4.3 ratios can be measured per
    family.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    comp = resolve_compressor(compressor)
    views = decomposition.partition_views(data)

    def _time(fn) -> float:
        best = float("inf")
        timer = Timer()
        for _ in range(repeats):
            with timer:
                fn()
            best = min(best, timer.elapsed)
        return best

    feature_time = _time(
        lambda: [extract_features(v, rank=i) for i, v in enumerate(views)]
    )
    if t_boundary is not None:
        both = _time(
            lambda: [
                extract_features(v, rank=i, t_boundary=t_boundary)
                for i, v in enumerate(views)
            ]
        )
        boundary_time = max(both - feature_time, 0.0)
    else:
        boundary_time = 0.0

    # The optimization itself: closed-form evaluation over M scalars.
    feats = [extract_features(v, rank=i) for i, v in enumerate(views)]
    model = RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.2)
    optimize_time = _time(lambda: optimize(feats, model, eb))

    compress_time = _time(lambda: comp.compress_many(views, [eb] * len(views)))
    return OverheadReport(
        feature_time=feature_time,
        boundary_time=boundary_time,
        optimize_time=optimize_time,
        compress_time=compress_time,
    )
