"""Reference-cached quality engine.

The Foresight-style methodology evaluates many reconstructions of the
*same* original field (one per trialed configuration), but the seed
:func:`repro.foresight.quality.evaluate_quality` recomputed every
original-side analysis — float64 cast, power spectrum, halo catalog,
min/max range — on each call.  A sweep over E error bounds thus paid E
redundant transforms and E redundant halo finds of identical data.

This module amortizes that cost:

- :class:`FieldReference` lazily caches per-field invariants (float64
  view, :class:`~repro.analysis.metrics.FieldMoments`, power spectra per
  ``nbins``, halo catalogs per threshold pair),
- :class:`QualityEvaluator` binds a reference to one
  :class:`~repro.foresight.quality.QualityCriteria` and evaluates each
  reconstruction with exactly one spectrum transform, at most one halo
  find, and one fused error pass
  (:func:`~repro.analysis.metrics.error_summary`),
- :func:`spectrum_deviation` is the spectrum half alone, for callers
  that record nothing else (the stream controller's quality check).

Which transform a spectrum takes is the fixed rule of
:func:`~repro.analysis.spectrum.low_k_only`, ``4 * nbins <=
min(shape)``: the evaluators' ``nbins = k_max - 1`` (9) gets the pruned
low-k DFT on grids from 36 cells a side (5.5 ms against 45 ms for a full
``rfftn`` at 128^3; the pruned DFT stays the faster one up to ``nbins``
of about 0.35-0.4 ``* min(shape)``), and Nyquist binning (the budget
inversion, the R-Q model) a full ``rfftn``, kept and re-binned per
``nbins``.  A reference and its reconstructions always take the same
transform, so an unchanged field scores exactly 0.

Report parity with the seed path is exact for halo metrics, within
1e-12 for spectra (exact where both bin a full ``rfftn``), and
floating-point-tolerant for the fused PSNR/NRMSE (tested in
``tests/foresight/test_evaluator.py``).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.analysis.catalog import compare_catalogs
from repro.analysis.halos import find_halos
from repro.analysis.metrics import FieldMoments, error_summary
from repro.analysis.spectrum import (
    PowerSpectrum,
    binned_power,
    binned_worst_deviation,
    low_k_only,
    nbins_below,
    power_spectrum,
    rfft_of,
)
from repro.foresight.quality import QualityCriteria, QualityReport

__all__ = ["FieldReference", "QualityEvaluator", "spectrum_deviation"]


class FieldReference:
    """Lazily cached analyses of one original (uncompressed) field.

    Every accessor computes its analysis on first use and returns the
    cached result afterwards, so any number of consumers — quality
    evaluators, budget inversions, halo-spec derivations — can share one
    reference per field without re-running a transform or the halo finder.
    """

    def __init__(self, data: np.ndarray) -> None:
        self._data = np.asarray(data)
        self._f64: np.ndarray | None = None
        self._fk: np.ndarray | None = None
        self._moments: FieldMoments | None = None
        self._spectra: dict[int | None, PowerSpectrum] = {}
        self._catalogs: dict[tuple[float, float | None], object] = {}

    @property
    def data(self) -> np.ndarray:
        return self._data

    @staticmethod
    def _note_cache(analysis: str, hit: bool) -> None:
        """Count reference-cache hits/misses (armed runs only): the rate
        is the amortization the Foresight-style sweep design claims."""
        if telemetry.enabled():
            outcome = "hits" if hit else "misses"
            telemetry.get_registry().counter(f"foresight.cache.{analysis}.{outcome}").inc()

    @property
    def f64(self) -> np.ndarray:
        """The field as float64 (cast once, shared by every analysis)."""
        self._note_cache("f64", self._f64 is not None)
        if self._f64 is None:
            self._f64 = np.asarray(self._data, dtype=np.float64)
        return self._f64

    @property
    def moments(self) -> FieldMoments:
        """Fused (min, max, sum, sum-of-squares) reduction moments."""
        self._note_cache("moments", self._moments is not None)
        if self._moments is None:
            self._moments = FieldMoments.from_field(self.f64)
        return self._moments

    def spectrum(self, nbins: int | None = None) -> PowerSpectrum:
        """Binned power spectrum of the original, cached per ``nbins``.

        It takes the transform :func:`power_spectrum` takes for ``nbins``
        (so a reconstruction's spectrum is always comparable): the pruned
        low-k DFT where :func:`low_k_only` holds, else the one full
        ``rfftn``, kept after the first and binned per ``nbins``."""
        self._note_cache("spectrum", nbins in self._spectra)
        if nbins not in self._spectra:
            f64 = self.f64
            if low_k_only(f64.shape, nbins):
                self._spectra[nbins] = power_spectrum(f64, nbins=nbins)
            else:
                if self._fk is None:
                    self._fk = rfft_of(f64)
                self._spectra[nbins] = binned_power(self._fk, f64.shape, nbins)
        return self._spectra[nbins]

    def halos(self, t_boundary: float, t_halo: float | None = None):
        """Halo catalog of the original, cached per threshold pair."""
        key = (float(t_boundary), None if t_halo is None else float(t_halo))
        self._note_cache("halos", key in self._catalogs)
        if key not in self._catalogs:
            self._catalogs[key] = find_halos(self.f64, t_boundary, t_halo)
        return self._catalogs[key]


def spectrum_deviation(
    reference: FieldReference, reconstructed: np.ndarray, k_max: int
) -> float:
    """``max_k |P'(k)/P(k) - 1|`` over ``k < k_max`` of one reconstruction.

    The same bits as :meth:`QualityEvaluator.evaluate`'s
    ``spectrum_worst_deviation`` with that ``spectrum_k_max``, without
    the metric moments and the error pass the evaluator adds.
    """
    nbins = nbins_below(k_max)
    rec = np.asarray(reconstructed, dtype=np.float64)
    return binned_worst_deviation(
        reference.spectrum(nbins), power_spectrum(rec, nbins=nbins), k_max
    )


class QualityEvaluator:
    """Evaluate many reconstructions of one field against one criteria set.

    Construction eagerly computes every original-side invariant the
    configured checks need (spectrum binned to ``spectrum_k_max``, halo
    catalog if ``check_halos``, metric moments); :meth:`evaluate` then
    costs one spectrum transform of the reconstruction, at most one halo
    find, and one fused error pass per call.

    Parameters
    ----------
    original:
        The uncompressed field, or ``None`` when ``reference`` is given.
    criteria:
        Acceptance thresholds (defaults to spectrum-only
        :class:`QualityCriteria`).
    reference:
        An existing :class:`FieldReference` to share cached analyses
        with other consumers of the same field.
    """

    def __init__(
        self,
        original: np.ndarray | None = None,
        criteria: QualityCriteria | None = None,
        reference: FieldReference | None = None,
    ) -> None:
        if reference is None:
            if original is None:
                raise ValueError("need either an original field or a reference")
            reference = FieldReference(original)
        self.reference = reference
        self.criteria = criteria or QualityCriteria()
        self._nbins = nbins_below(self.criteria.spectrum_k_max)
        # Eager precompute: the original-side analyses run here, once,
        # not inside the first evaluate().
        self._ps_orig = self.reference.spectrum(self._nbins)
        self._moments = self.reference.moments
        if self.criteria.check_halos:
            assert self.criteria.t_boundary is not None
            self.reference.halos(self.criteria.t_boundary, self.criteria.t_halo)

    def evaluate(self, reconstructed: np.ndarray) -> QualityReport:
        """Run every configured check on one reconstructed field."""
        crit = self.criteria
        rec = np.asarray(reconstructed, dtype=np.float64)
        ps_rec = power_spectrum(rec, nbins=self._nbins)
        worst = binned_worst_deviation(self._ps_orig, ps_rec, crit.spectrum_k_max)
        spectrum_ok = worst <= crit.spectrum_tolerance

        halo_ok: bool | None = None
        halo_rmse: float | None = None
        halo_dcount: int | None = None
        if crit.check_halos:
            assert crit.t_boundary is not None
            cat_o = self.reference.halos(crit.t_boundary, crit.t_halo)
            cat_r = find_halos(rec, crit.t_boundary, crit.t_halo)
            cmp = compare_catalogs(cat_o, cat_r, max_distance=crit.halo_match_distance)
            halo_dcount = cmp.count_change
            # No halo above t_boundary in either field leaves nothing to
            # check (vacuous, as the model's verdict); a lost or grown
            # catalog has no matched mass, so its RMSE is nan and fails.
            if cmp.n_original or cmp.n_reconstructed:
                halo_rmse = cmp.mass_rmse
                halo_ok = bool(
                    np.isfinite(halo_rmse) and halo_rmse <= crit.halo_mass_rmse
                )

        err = error_summary(self.reference.f64, rec, moments=self._moments)
        return QualityReport(
            spectrum_ok=spectrum_ok,
            spectrum_worst_deviation=worst,
            halo_ok=halo_ok,
            halo_mass_rmse=halo_rmse,
            halo_count_change=halo_dcount,
            psnr_db=err.psnr_db,
            nrmse_value=err.nrmse_value,
        )
