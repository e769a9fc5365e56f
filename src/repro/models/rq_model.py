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
(:meth:`repro.compression.sz.SZCompressor.estimate_many`):

- predicted bitrate / ratio from the code histogram (the PR 2 estimator),
- predicted PSNR / NRMSE from the probe's MSE, which is the MSE of the
  values the decoder returns (the quantize pass's lattice times its
  pitch, minus the source),
- a predicted worst spectrum-ratio deviation over ``k < k_max`` (and its
  pass/fail verdict against the criteria tolerance),
- a predicted halo mass-error fraction and verdict when the criteria
  check halos.

No Lorenzo decode, no entropy codec, no decompression, no reconstruction
analysis.  ``run_sweep(probe_mode="model")`` scores its cells with these
predictions (selection and the stream controller take only the rates,
through codec-free calibration); `docs/rq-model.md` records the
equations, the validated tolerances (ratio within ~10% on Nyx fields;
PSNR is the measured one) and when to fall back to exact mode.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
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

__all__ = [
    "BOUNDARY_BAND_FACTOR",
    "RQPrediction",
    "RQModel",
]

#: A prediction counts as *near the acceptance boundary* when its worst
#: spectrum deviation lies within this factor of the tolerance (either
#: side).  The exact-confirmation knob (``confirm="boundary"``) re-checks
#: only those cells, where the model's few-percent bias could flip a
#: verdict; far from the boundary the prediction is decisive.
BOUNDARY_BAND_FACTOR = 3.0


@dataclass(frozen=True)
class RQPrediction:
    """Closed-form rate and quality verdicts for one ``(field, eb)`` cell."""

    field: str
    eb: float
    predicted_bit_rate: float
    predicted_ratio: float
    predicted_mse: float
    predicted_psnr_db: float
    predicted_nrmse: float
    spectrum_worst_deviation: float
    spectrum_ok: bool
    halo_ok: bool | None = None
    halo_mass_error: float | None = None  # predicted |ΔM| (absolute mass units)
    halo_mass_fraction: float | None = None  # |ΔM| / total catalog mass
    halo_fault_cells: float | None = None  # expected flipped boundary cells

    @property
    def passed(self) -> bool:
        """Mirror of :attr:`repro.foresight.quality.QualityReport.passed`."""
        return self.spectrum_ok and (self.halo_ok is None or self.halo_ok)

    def near_boundary(self, criteria: QualityCriteria) -> bool:
        """Is any verdict within :data:`BOUNDARY_BAND_FACTOR` of its
        threshold, close enough to deserve an exact confirmation run?"""
        factor = BOUNDARY_BAND_FACTOR
        tol = criteria.spectrum_tolerance
        if tol / factor <= self.spectrum_worst_deviation <= tol * factor:
            return True
        if self.halo_mass_fraction is not None:
            h = criteria.halo_mass_rmse
            if h / factor <= self.halo_mass_fraction <= h * factor:
                return True
        return False

    def to_quality_report(self) -> QualityReport:
        """The prediction in :class:`QualityReport` shape, so consumers of
        sweep records (``record.passed``, tables, CSV) work unchanged.

        ``halo_mass_rmse`` carries the predicted mass-error *fraction*
        (the budget analogue of the measured relative RMSE) and
        ``halo_count_change`` is predicted zero — the fault model bounds
        mass drift, not catalog membership.
        """
        from repro.foresight.quality import QualityReport

        return QualityReport(
            spectrum_ok=self.spectrum_ok,
            spectrum_worst_deviation=self.spectrum_worst_deviation,
            halo_ok=self.halo_ok,
            halo_mass_rmse=self.halo_mass_fraction,
            halo_count_change=0 if self.halo_ok is not None else None,
            psnr_db=self.predicted_psnr_db,
            nrmse_value=self.predicted_nrmse,
        )


class RQModel:
    """Per-field composition of the rate and quality models.

    Binds one :class:`~repro.foresight.evaluator.FieldReference` (so the
    original-side spectrum is computed once and shared with evaluators
    and budget inversions) to one
    :class:`~repro.foresight.quality.QualityCriteria`, and turns
    quantization-probe statistics into :class:`RQPrediction` verdicts.

    Parameters
    ----------
    reference:
        The original field — an existing ``FieldReference`` (shared
        caches) or a raw array (wrapped).
    criteria:
        Acceptance thresholds; defaults to the spectrum-only
        :class:`QualityCriteria`.  Halo verdicts are predicted only when
        ``criteria.check_halos`` is set.
    field:
        Name stamped on predictions.

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
        field: str = "field",
    ) -> None:
        from repro.foresight.evaluator import FieldReference
        from repro.foresight.quality import QualityCriteria

        if not isinstance(reference, FieldReference):
            reference = FieldReference(reference)
        self.reference = reference
        self.criteria = criteria or QualityCriteria()
        self.field = field
        # Lazy: nothing is analyzed until the first prediction needs it,
        # so building a model on a rate-only path costs nothing.
        self._halo_mass: float | None = None

    # -- model components -------------------------------------------------

    def predicted_spectrum_deviation(self, eb: float) -> float:
        """Predicted worst ``|P'(k)/P(k) - 1|`` over ``k < k_max``.

        Uses the same full-resolution binned spectrum (and sub-threshold
        power estimate) as
        :func:`repro.core.selection.derive_eb_budget`'s inversion, so
        predictions and budgets agree at the boundary.
        """
        eb = check_positive(eb, "eb")
        crit = self.criteria
        ps = self.reference.spectrum()
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

    def predicted_halo_error(
        self, eb: float
    ) -> tuple[float, float, float, bool] | None:
        """``(mass_error, mass_fraction, fault_cells, ok)`` or ``None``.

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
        mass_error = float(crit.t_boundary) * faults
        fraction = mass_error / catalog_mass
        return mass_error, fraction, faults, fraction <= crit.halo_mass_rmse

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
        self.reference.moments
        self.reference.spectrum()
        crit = self.criteria
        if crit.check_halos and crit.t_boundary is not None:
            self._catalog_mass()

    def predict(
        self, eb: float, estimates: "Sequence[RQEstimate] | RQEstimate"
    ) -> RQPrediction:
        """Compose one probe's statistics into a full R-Q verdict.

        ``estimates`` is the per-partition output of one
        ``estimate_many`` probe at ``eb``, or that bound's row of an
        ``estimate_ladder`` (a single estimate is accepted for
        whole-field probes).  Rate aggregates over partitions.  MSE
        pools each partition's *observed* quantization MSE, element-count
        weighted.  The PSNR normalizer is the *field's* value range, so
        per-partition ranges never skew it.
        """
        eb = check_positive(eb, "eb")
        if isinstance(estimates, RQEstimate):
            estimates = [estimates]
        if not estimates:
            raise ValueError("need at least one probe estimate")
        n = sum(e.n_elements for e in estimates)
        nbytes = float(sum(e.est_nbytes for e in estimates))
        itemsize = estimates[0].source_itemsize
        mse = float(sum(e.n_elements * e.predicted_mse for e in estimates) / n)
        value_range = self.reference.moments.value_range
        worst = self.predicted_spectrum_deviation(eb)
        halo = self.predicted_halo_error(eb)
        return RQPrediction(
            field=self.field,
            eb=float(eb),
            predicted_bit_rate=8.0 * nbytes / n,
            predicted_ratio=itemsize * n / nbytes,
            predicted_mse=mse,
            predicted_psnr_db=predicted_psnr_db(mse, value_range),
            predicted_nrmse=predicted_nrmse(mse, value_range),
            spectrum_worst_deviation=worst,
            spectrum_ok=worst <= self.criteria.spectrum_tolerance,
            halo_ok=None if halo is None else halo[3],
            halo_mass_error=None if halo is None else halo[0],
            halo_mass_fraction=None if halo is None else halo[1],
            halo_fault_cells=None if halo is None else halo[2],
        )
