"""Error propagation through the FFT (§3.3, Eqs. 4-10).

SZ's pointwise error is ~``U[-eb, eb]``.  Injected into the DFT sum,
each mode's real (and imaginary) component accumulates ``N`` independent
terms ``eb_n * sin(2 pi n k / N)``; by the central limit theorem the
result is Gaussian with

    sigma = sqrt(N / 6) * eb          (Eq. 8, one component)

and for a full 3-D transform of ``N**3`` points, ``sigma =
sqrt(N**3/6) * eb`` (Eq. 9).  With per-partition bounds the paper
averages the bounds (Eq. 10); the statistically exact combination uses
the RMS of the bounds — both are provided (they coincide under the
optimizer's 4x clamp to within a few percent, which the Fig. 5 bench
quantifies).

This module also translates the mode-level sigma into a predicted
distortion of the *binned power spectrum ratio* — the quantity the
paper's acceptance test constrains — and inverts that prediction to an
admissible average error bound.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.analysis.spectrum import PowerSpectrum
from repro.util.validation import check_positive

__all__ = [
    "SUB_POWER_STRIDE",
    "dft_error_sigma",
    "mixed_partition_sigma",
    "predicted_spectrum_distortion",
    "spectrum_ratio_tolerance_to_eb",
    "sub_threshold_power_curve",
    "sub_threshold_power_estimate",
]

#: Per-point error variance of U[-eb, eb] is eb^2/3; projecting on a
#: sinusoid halves it — hence the 1/6 in Eq. 7.
_COMPONENT_VAR_FACTOR = 1.0 / 6.0

#: Subsample stride of the sub-threshold power that both the budget
#: inversion (:func:`repro.core.selection.derive_eb_budget`) and the
#: ratio-quality engine (:class:`repro.models.rq_model.RQModel`) read:
#: one value, so a field probed *at* its derived budget predicts inside
#: the tolerance.
SUB_POWER_STRIDE = 2


def dft_error_sigma(n_elements: int, eb: float, std_factor: float | None = None) -> float:
    """Std of one DFT-output component (real or imaginary), Eqs. 8-9.

    Parameters
    ----------
    n_elements:
        Total number of input elements (``N`` in 1-D, ``N**3`` in 3-D).
    eb:
        Absolute error bound.
    std_factor:
        Override the per-point error std in units of ``eb`` (default
        ``sqrt(1/3)``, the uniform model); pass a revised value for
        non-uniform distributions (§3.5).
    """
    if n_elements <= 0:
        raise ValueError(f"n_elements must be positive, got {n_elements}")
    eb = check_positive(eb, "eb")
    if std_factor is None:
        return float(np.sqrt(n_elements * _COMPONENT_VAR_FACTOR) * eb)
    # General distribution: component variance is N * (std_factor*eb)^2 / 2.
    return float(np.sqrt(n_elements / 2.0) * std_factor * eb)


def mixed_partition_sigma(
    n_elements: int,
    ebs: np.ndarray,
    mode: str = "paper",
) -> float:
    """DFT component sigma when partitions carry different bounds (Eq. 10).

    ``mode="paper"`` uses the paper's linear average of the bounds;
    ``mode="rms"`` combines partition variances exactly (equal-size
    partitions assumed, as in the paper's setup).
    """
    ebs = np.asarray(ebs, dtype=np.float64)
    if ebs.ndim != 1 or ebs.size == 0:
        raise ValueError("ebs must be a non-empty 1-D array")
    if (ebs <= 0).any():
        raise ValueError("all error bounds must be positive")
    if mode == "paper":
        eff = ebs.mean()
    elif mode == "rms":
        eff = float(np.sqrt(np.mean(ebs**2)))
    else:
        raise ValueError(f"mode must be 'paper' or 'rms', got {mode!r}")
    return dft_error_sigma(n_elements, eff)


def predicted_spectrum_distortion(
    spectrum: PowerSpectrum,
    n_elements: int,
    eb: float,
    confidence_z: float = 2.0,
    sub_threshold_power: float = 0.0,
    correlated_fraction: float = 0.0,
) -> np.ndarray:
    """Predicted ``|P'(k)/P(k) - 1|`` bound per bin at ``confidence_z`` sigma.

    Derivation (per-cell-normalized spectra, matching
    :func:`repro.analysis.spectrum.power_spectrum`): uniform error adds a
    white-noise floor ``eb**2/3`` per cell (deterministic bias) plus a
    fluctuation whose bin-averaged std is
    ``sqrt((4 P(k) eb^2/6 + (eb^2/3)^2) / n_modes)``.

    Two extensions beyond the paper's pure-white model (both default to
    0, recovering Eq. 10's behaviour):

    - ``sub_threshold_power`` — cells whose magnitude is below the
      quantization pitch reconstruct to zero, so their power
      (``mean(x^2 | |x| < eb)`` per cell) leaves the spectrum
      coherently; estimate with :func:`sub_threshold_power_estimate`.
    - ``correlated_fraction`` — deterministic quantization error is not
      independent of structured (lognormal-like) fields; a fraction
      ``rho`` of the error amplitude tracks the signal, contributing a
      first-order cross term ``2*rho*sqrt(noise/P)`` per bin.  This is
      the quantitative version of the paper's §3.5 "revised
      distribution" caveat; 0.5 is a conservative default for density-
      derived fields (calibrated in the Fig. 5 bench).
    """
    eb = check_positive(eb, "eb")
    _check_distortion_args(confidence_z, correlated_fraction)
    if sub_threshold_power < 0:
        raise ValueError("sub_threshold_power must be non-negative")
    p, modes = _spectrum_arrays(spectrum)
    return _distortion(p, modes, eb, confidence_z, sub_threshold_power, correlated_fraction)


def _check_distortion_args(confidence_z: float, correlated_fraction: float) -> None:
    if confidence_z <= 0:
        raise ValueError(f"confidence_z must be positive, got {confidence_z}")
    if not 0.0 <= correlated_fraction <= 1.0:
        raise ValueError("correlated_fraction must be in [0, 1]")


def _spectrum_arrays(spectrum: PowerSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """``(power, max(n_modes, 1))`` as float64, validated: what
    :func:`_distortion` reads, built once per spectrum."""
    p = np.asarray(spectrum.power, dtype=np.float64)
    if (p <= 0).any():
        raise ValueError("spectrum contains empty bins")
    return p, np.maximum(np.asarray(spectrum.n_modes, dtype=np.float64), 1.0)


def _distortion(
    p: np.ndarray,
    modes: np.ndarray,
    eb: float,
    confidence_z: float,
    sub_threshold_power: float,
    correlated_fraction: float,
) -> np.ndarray:
    """:func:`predicted_spectrum_distortion`'s arithmetic on validated
    inputs (``modes`` already clamped to 1)."""
    noise_floor = eb**2 / 3.0
    var_bin = (4.0 * p * eb**2 * _COMPONENT_VAR_FACTOR + noise_floor**2) / modes
    coherent = sub_threshold_power
    cross_sub = 2.0 * np.sqrt(coherent * np.minimum(p, coherent)) if coherent > 0 else 0.0
    cross_corr = 2.0 * correlated_fraction * np.sqrt((noise_floor + coherent) / p)
    return (
        (noise_floor + coherent + cross_sub) / p
        + cross_corr
        + confidence_z * np.sqrt(var_bin) / p
    )


def sub_threshold_power_estimate(field: np.ndarray, eb: float, stride: int = 4) -> float:
    """Per-cell power of values the compressor would zero (``|x| < eb``).

    Uses a strided subsample so the in situ cost stays negligible
    (``stride=4`` touches 1/64 of the cells).
    """
    eb = check_positive(eb, "eb")
    return sub_threshold_power_curve(field, stride)(eb)


def sub_threshold_power_curve(field: np.ndarray, stride: int = 4) -> Callable[[float], float]:
    """:func:`sub_threshold_power_estimate` of ``field`` as a function of
    ``eb``, bit-identical to it, with the strided subsample's squares
    and magnitudes built once — what a bisection over ``eb`` calls.

    The sets ``{|x| < eb}`` of two bounds are nested, so the count of
    cells below ``eb`` names the set, and so the mean: each is computed
    once per count (a bisection's late steps mostly move no cell)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    sub = np.asarray(field, dtype=np.float64)[::stride, ::stride, ::stride]
    squares, mags = sub**2, np.abs(sub)
    by_count: dict[int, float] = {}

    def estimate(eb: float) -> float:
        eb = check_positive(eb, "eb")
        below = mags < eb
        count = int(np.count_nonzero(below))
        if count not in by_count:
            by_count[count] = float(np.mean(np.where(below, squares, 0.0)))
        return by_count[count]

    return estimate


def spectrum_ratio_tolerance_to_eb(
    spectrum: PowerSpectrum,
    n_elements: int,
    tolerance: float = 0.01,
    k_max: int = 10,
    confidence_z: float = 2.0,
    sub_power_fn: "callable | None" = None,
    correlated_fraction: float = 0.0,
) -> float:
    """Largest average ``eb`` keeping predicted P(k) distortion within tolerance.

    Inverts :func:`predicted_spectrum_distortion` over ``k < k_max`` by
    bisection (the prediction is monotone in ``eb``).  This is the error
    budget the in situ optimizer feeds Eq. 16 — no trial-and-error
    compression is needed.

    ``sub_power_fn`` (``eb -> per-cell sub-threshold power``) activates
    the coherent-loss correction; build one from the field with
    ``sub_threshold_power_curve(field)``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    mask = spectrum.k < k_max
    if not mask.any():
        raise ValueError(f"no spectrum bins below k_max={k_max}")
    _check_distortion_args(confidence_z, correlated_fraction)
    p, modes = _spectrum_arrays(
        PowerSpectrum(
            k=spectrum.k[mask], power=spectrum.power[mask], n_modes=spectrum.n_modes[mask]
        )
    )

    def worst(eb: float) -> float:
        s = float(sub_power_fn(eb)) if sub_power_fn is not None else 0.0
        if s < 0:
            raise ValueError("sub_threshold_power must be non-negative")
        return float(
            _distortion(p, modes, float(eb), confidence_z, s, correlated_fraction).max()
        )

    lo, hi = 1e-12, 1.0
    # Grow hi until the tolerance is exceeded (or a generous cap is hit).
    while worst(hi) < tolerance and hi < 1e12:
        lo = hi
        hi *= 4.0
    if worst(lo) > tolerance:
        raise ValueError(
            "tolerance unachievable even at the smallest probed error bound"
        )
    # At most 80 steps, and none past the fixed point: a step that leaves
    # (lo, hi) as they were would repeat itself every step after.
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        if worst(mid) <= tolerance:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return float(lo)
