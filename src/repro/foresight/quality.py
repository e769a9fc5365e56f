"""Post-hoc quality acceptance criteria (§2.1's thresholds).

Bundles the paper's two domain criteria — power-spectrum ratio within
``1 +/- 0.01`` below ``k_max`` and halo-mass RMSE within 0.01 — together
with the generic metrics, into a single evaluation call used by the
Foresight-style sweeps and the trial-and-error baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["QualityCriteria", "QualityReport", "evaluate_quality"]


@dataclass(frozen=True)
class QualityCriteria:
    """Acceptance thresholds for one field."""

    spectrum_tolerance: float = 0.01
    spectrum_k_max: int = 10
    check_halos: bool = False
    t_boundary: float | None = None
    t_halo: float | None = None
    halo_mass_rmse: float = 0.01
    halo_match_distance: float = 2.0

    def __post_init__(self) -> None:
        if self.spectrum_tolerance <= 0:
            raise ValueError("spectrum_tolerance must be positive")
        if self.check_halos and self.t_boundary is None:
            raise ValueError("halo checks require t_boundary")
        check_positive(self.halo_match_distance, "halo_match_distance")


@dataclass
class QualityReport:
    """All quality measurements for one (field, configuration) pair."""

    spectrum_ok: bool
    spectrum_worst_deviation: float
    halo_ok: bool | None
    halo_mass_rmse: float | None
    halo_count_change: int | None
    psnr_db: float
    nrmse_value: float

    @property
    def passed(self) -> bool:
        return self.spectrum_ok and (self.halo_ok is None or self.halo_ok)


def evaluate_quality(
    original: np.ndarray,
    reconstructed: np.ndarray,
    criteria: QualityCriteria,
) -> QualityReport:
    """Run every configured check on a reconstructed field.

    One-shot convenience front for the reference-cached engine: builds a
    throwaway :class:`~repro.foresight.evaluator.QualityEvaluator` and
    evaluates a single reconstruction.  Code that evaluates *many*
    reconstructions of the same field (sweeps, trial-and-error searches)
    should hold on to one evaluator instead, so the original-side
    spectrum/halo/moment analyses are computed only once.
    """
    from repro.foresight.evaluator import QualityEvaluator

    return QualityEvaluator(original, criteria).evaluate(reconstructed)
