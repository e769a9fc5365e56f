"""The paper's rate-quality models (§3.2-§3.5).

- :mod:`repro.models.error_distribution` — SZ's compression error as a
  uniform distribution ``U[-eb, eb]`` (Fig. 3), with the "revised"
  variant for very large bounds,
- :mod:`repro.models.fft_error` — error propagation through the DFT
  (Eqs. 4-10): Gaussian with ``sigma = sqrt(N/6) * eb`` per axis pass,
  extended to per-partition error bounds,
- :mod:`repro.models.halo_error` — halo-finder distortion (Eqs. 11-14):
  boundary-cell fault probability 1/4 and the mass-change budget,
- :mod:`repro.models.rate_model` — the empirical power-law bit-rate
  model ``b_m = C_m * eb**c`` (Eq. 15) and the closed-form optimum
  (Eq. 16),
- :mod:`repro.models.calibration` — fits the rate model's shared
  exponent and coefficient-vs-mean relation from sampled partitions,
- :mod:`repro.models.rq_model` — the closed-form ratio-quality engine
  composing the above into per-``(field, eb)`` predicted
  PSNR/spectrum/halo verdicts from one quantization probe.
"""

from repro.models.error_distribution import (
    RevisedUniformErrorModel,
    UniformErrorModel,
)
from repro.models.fft_error import (
    dft_error_sigma,
    mixed_partition_sigma,
    spectrum_ratio_tolerance_to_eb,
    predicted_spectrum_distortion,
    sub_threshold_power_estimate,
)
from repro.models.halo_error import (
    FAULT_PROBABILITY,
    boundary_cell_count,
    expected_fault_cells,
    fault_cell_sigma,
    halo_mass_error_budget,
)
from repro.models.rate_model import RateModel, fit_power_law, optimal_error_bounds
from repro.models.calibration import (
    CalibrationResult,
    RateModelBank,
    calibrate_rate_model,
)
from repro.models.rq_model import RQModel

__all__ = [
    "UniformErrorModel",
    "RevisedUniformErrorModel",
    "dft_error_sigma",
    "mixed_partition_sigma",
    "predicted_spectrum_distortion",
    "sub_threshold_power_estimate",
    "spectrum_ratio_tolerance_to_eb",
    "FAULT_PROBABILITY",
    "boundary_cell_count",
    "expected_fault_cells",
    "fault_cell_sigma",
    "halo_mass_error_budget",
    "RateModel",
    "fit_power_law",
    "optimal_error_bounds",
    "CalibrationResult",
    "RateModelBank",
    "calibrate_rate_model",
    "RQModel",
]
