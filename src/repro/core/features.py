"""In situ per-partition feature extraction (§3.6, §4.3).

The whole point of the paper's design is that the optimizer needs only
*cheap* per-partition summaries:

- ``mean |value|`` — predicts the rate coefficient ``C_m``
  (1-1.5% of compression time on CPUs per the paper),
- the boundary-cell rate around ``t_boundary`` — the halo-finder
  feature, extracted only for the density field (up to 5%),
- :func:`histogram_entropy`, the more expensive feature the paper
  considered and rejected, which only the C_m-feature ablation bench
  computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.calibration import partition_feature
from repro.models.halo_error import effective_cell_rate

__all__ = ["PartitionFeatures", "extract_features", "histogram_entropy"]


@dataclass(frozen=True)
class PartitionFeatures:
    """Summaries of one partition consumed by the optimizer."""

    rank: int
    n_cells: int
    mean_abs: float
    effective_cell_rate: float | None = None  # boundary cells per unit eb

    def __post_init__(self) -> None:
        if self.n_cells <= 0:
            raise ValueError("n_cells must be positive")
        if self.mean_abs < 0:
            raise ValueError("mean_abs must be non-negative")


def histogram_entropy(partition: np.ndarray, bins: int = 256) -> float:
    """Shannon entropy (bits) of the value histogram — the costly feature.

    Computed on the partition's native dtype: ``min``/``max`` and
    ``np.histogram`` (which bins against float64 edges internally)
    handle float32 fields directly, so the old full-array float64
    ravel copy is never materialized.
    """
    arr = np.asarray(partition)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return 0.0
    counts, _ = np.histogram(arr, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / arr.size
    return float(-(p * np.log2(p)).sum())


def extract_features(
    partition: np.ndarray,
    rank: int = 0,
    t_boundary: float | None = None,
    reference_eb: float = 1.0,
) -> PartitionFeatures:
    """Extract the in situ features of one partition.

    ``mean_abs`` is :func:`~repro.models.calibration.partition_feature`,
    the feature the rate model's calibration regresses on.
    ``t_boundary`` enables the halo feature (density fields only).
    """
    arr = np.asarray(partition)
    if arr.size == 0:
        raise ValueError("partition must be non-empty")
    rate = None
    if t_boundary is not None:
        rate = effective_cell_rate(
            np.asarray(arr, dtype=np.float64), t_boundary, reference_eb
        )
    return PartitionFeatures(
        rank=rank,
        n_cells=int(arr.size),
        mean_abs=partition_feature(arr),
        effective_cell_rate=rate,
    )
