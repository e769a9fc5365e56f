"""The closed-form ratio-quality (R-Q) engine: predictions, no trials.

Jin et al.'s follow-up ("Improving Prediction-Based Lossy Compression
Dramatically via Ratio-Quality Modeling") shows that both halves of the
rate-quality trade are predictable analytically from quantization
statistics.  This module composes the models this reproduction already
has — the §3.2 uniform error distribution
(:mod:`repro.models.error_distribution`), the §3.3 FFT propagation
(:mod:`repro.models.fft_error`) and the §3.4 halo fault model
(:mod:`repro.models.halo_error`) — into per-``(field, spec, eb)``
verdicts backed by **one** batched quantization probe
(:meth:`repro.compression.sz.SZCompressor.estimate_ladder`).  A verdict
is the :class:`~repro.foresight.quality.QualityReport` a measured cell
gets, predicted:

- PSNR / NRMSE from the probe's MSE, which is the MSE of the values the
  decoder returns (the quantize pass's lattice times its pitch, minus
  the source),
- the worst spectrum-ratio deviation over ``k < k_max`` (and its
  pass/fail verdict against the criteria tolerance),
- the halo mass-error fraction and verdict when the criteria check
  halos.

The rate half of the probe (bitrate / ratio from the code histogram) is
read by whoever holds the estimates; the report carries quality only.
No Lorenzo decode, no entropy codec, no decompression, no reconstruction
analysis.  ``run_sweep(probe_mode="model")`` scores its cells with these
predictions (selection and the stream controller take only the rates,
through codec-free calibration); `docs/rq-model.md` records the
equations, the validated tolerances (ratio within ~10% on Nyx fields;
PSNR is the measured one) and when to fall back to exact mode.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.compression.estimator import (
    RQEstimate,
    predicted_nrmse,
    predicted_psnr_db,
)
from repro.models.error_distribution import UniformErrorModel
from repro.models.fft_error import (
    SUB_POWER_STRIDE,
    predicted_spectrum_distortion,
    sub_threshold_power_estimate,
)
from repro.models.halo_error import boundary_cell_count, expected_fault_cells
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.foresight.evaluator import FieldReference
    from repro.foresight.quality import QualityCriteria, QualityReport

__all__ = ["RQModel"]


class RQModel:
    """Per-field composition of the rate and quality models.

    Binds one :class:`~repro.foresight.evaluator.FieldReference` (so the
    original-side analyses are computed once and shared with evaluators
    and budget inversions) to one
    :class:`~repro.foresight.quality.QualityCriteria`, and turns
    quantization-probe statistics into predicted
    :class:`~repro.foresight.quality.QualityReport` verdicts.

    Parameters
    ----------
    reference:
        The original field — an existing ``FieldReference`` (shared
        caches) or a raw array (wrapped).
    criteria:
        Acceptance thresholds; defaults to the spectrum-only
        :class:`QualityCriteria`.  Halo verdicts are predicted only when
        ``criteria.check_halos`` is set.

    The boundary fault probability is the §3.2 uniform model's.  The
    spectrum prediction uses
    :func:`~repro.models.fft_error.predicted_spectrum_distortion`'s
    default ``confidence_z`` and ``correlated_fraction`` — a default
    :class:`~repro.core.config.FieldSpec`'s, which the §3.3/§3.5 budget
    inversion reads — and the sub-threshold power at the same
    :data:`~repro.models.fft_error.SUB_POWER_STRIDE`, so a field probed
    *at* its derived budget predicts inside the tolerance by
    construction.
    """

    def __init__(
        self,
        reference: "FieldReference | np.ndarray",
        criteria: QualityCriteria | None = None,
    ) -> None:
        from repro.foresight.evaluator import FieldReference
        from repro.foresight.quality import QualityCriteria

        if not isinstance(reference, FieldReference):
            reference = FieldReference(reference)
        self.reference = reference
        self.criteria = criteria or QualityCriteria()
        # Lazy: nothing is analyzed until the first prediction needs it,
        # so building a model on a rate-only path costs nothing.
        self._halo_mass: float | None = None

    # -- model components -------------------------------------------------

    def predicted_spectrum_deviation(self, eb: float) -> float:
        """Predicted worst ``|P'(k)/P(k) - 1|`` over ``k < k_max``.

        Uses the same binned spectrum (the reference's ``model_spectrum``)
        and sub-threshold power estimate as
        :func:`repro.core.selection.derive_eb_budget`'s inversion, so
        predictions and budgets agree at the boundary.
        """
        eb = check_positive(eb, "eb")
        crit = self.criteria
        ps = self.reference.model_spectrum(crit.spectrum_k_max)
        mask = ps.k < crit.spectrum_k_max
        if not mask.any():
            raise ValueError(f"no spectrum bins below k_max={crit.spectrum_k_max}")
        sub = type(ps)(k=ps.k[mask], power=ps.power[mask], n_modes=ps.n_modes[mask])
        f64 = self.reference.f64
        dist = predicted_spectrum_distortion(
            sub,
            f64.size,
            eb,
            sub_threshold_power=sub_threshold_power_estimate(
                f64, eb, stride=SUB_POWER_STRIDE
            ),
        )
        return float(np.max(dist))

    def predicted_halo_error(self, eb: float) -> tuple[float, bool] | None:
        """``(mass_fraction, ok)`` or ``None``.

        ``None`` when the criteria do not check halos or the reference
        catalog is empty (the constraint is vacuous).  Eqs. 11-13: cells
        within ``eb`` of ``t_boundary`` flip with the error model's fault
        probability, each moving ~``t_boundary`` of mass; the verdict
        compares the total predicted drift, as a fraction of the catalog
        mass, against the criteria's relative mass-RMSE budget.
        """
        crit = self.criteria
        if not crit.check_halos or crit.t_boundary is None:
            return None
        catalog_mass = self._catalog_mass()
        if catalog_mass <= 0:
            return None
        n_bc = boundary_cell_count(self.reference.f64, crit.t_boundary, eb)
        faults = float(
            expected_fault_cells(n_bc, UniformErrorModel().fault_probability())
        )
        fraction = float(crit.t_boundary) * faults / catalog_mass
        return fraction, fraction <= crit.halo_mass_rmse

    def _catalog_mass(self) -> float:
        """Total mass of the reference's halo catalog (0 when empty),
        found on first use; the criteria must check halos."""
        if self._halo_mass is None:
            crit = self.criteria
            catalog = self.reference.halos(crit.t_boundary, crit.t_halo)
            self._halo_mass = float(catalog.masses.sum()) if catalog.n_halos else 0.0
        return self._halo_mass

    # -- the prediction ----------------------------------------------------

    def analyze(self) -> None:
        """Build every reference analysis a prediction reads — the value
        moments, the binned spectrum and, when the criteria check halos,
        the catalog's mass — so that predictions made after it only read
        them and may run side by side."""
        crit = self.criteria
        self.reference.moments
        self.reference.model_spectrum(crit.spectrum_k_max)
        if crit.check_halos and crit.t_boundary is not None:
            self._catalog_mass()

    def predict(self, eb: float, estimates: Sequence[RQEstimate]) -> QualityReport:
        """One bound's probe statistics as the cell's predicted
        :class:`~repro.foresight.quality.QualityReport`, so consumers of
        sweep records (``record.passed``, tables, CSV) read it as they
        read a measured one.

        ``estimates`` is that bound's row of an ``estimate_ladder``, one
        estimate per partition.  MSE pools each partition's *observed*
        quantization MSE, element-count weighted.  The PSNR normalizer
        is the *field's* value range, so per-partition ranges never skew
        it.  ``halo_mass_rmse`` carries the predicted mass-error
        *fraction* (the budget analogue of the measured relative RMSE)
        and ``halo_count_change`` is predicted zero — the fault model
        bounds mass drift, not catalog membership.
        """
        from repro.foresight.quality import QualityReport

        eb = check_positive(eb, "eb")
        if not estimates:
            raise ValueError("need at least one probe estimate")
        n = sum(e.n_elements for e in estimates)
        mse = float(sum(e.n_elements * e.predicted_mse for e in estimates) / n)
        value_range = self.reference.moments.value_range
        worst = self.predicted_spectrum_deviation(eb)
        halo = self.predicted_halo_error(eb)
        return QualityReport(
            spectrum_ok=worst <= self.criteria.spectrum_tolerance,
            spectrum_worst_deviation=worst,
            halo_ok=None if halo is None else halo[1],
            halo_mass_rmse=None if halo is None else halo[0],
            halo_count_change=None if halo is None else 0,
            psnr_db=predicted_psnr_db(mse, value_range),
            nrmse_value=predicted_nrmse(mse, value_range),
        )
