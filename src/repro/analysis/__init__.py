"""Post-hoc analysis substrate: power spectrum and halo finding.

These are the two analyses whose distortion the paper's models predict:

- :mod:`repro.analysis.spectrum` — 3-D FFT matter power spectrum with
  the paper's acceptance criterion (``P'(k)/P(k)`` within ``1 +/- tol``
  for ``k < k_max``),
- :mod:`repro.analysis.halos` — Nyx-style grid halo finder (candidate
  threshold ``t_boundary``, halo threshold ``t_halo``, cell-weighted
  masses and centroid positions),
- :mod:`repro.analysis.labeling` — from-scratch 3-D connected-component
  labeling backing the halo finder,
- :mod:`repro.analysis.catalog` — halo catalog matching and the halo
  quality metrics (count change, position change, per-halo mass change),
- :mod:`repro.analysis.metrics` — the general-purpose distortion metrics
  (PSNR/MSE/...) the paper argues are insufficient on their own.
"""

from repro.analysis.spectrum import (
    PowerSpectrum,
    check_spectrum_quality,
    power_spectrum,
    spectrum_ratio,
)
from repro.analysis.labeling import label_components
from repro.analysis.halos import HaloCatalog, find_halos
from repro.analysis.catalog import CatalogComparison, compare_catalogs
from repro.analysis.metrics import mse, nrmse, psnr

__all__ = [
    "PowerSpectrum",
    "power_spectrum",
    "spectrum_ratio",
    "check_spectrum_quality",
    "label_components",
    "HaloCatalog",
    "find_halos",
    "CatalogComparison",
    "compare_catalogs",
    "psnr",
    "mse",
    "nrmse",
]
