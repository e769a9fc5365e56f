"""3-D matter power spectrum, the paper's primary FFT-based analysis.

The density field is Fourier transformed; mode powers ``|delta_k|^2``
are binned by integer wavenumber (in units of the fundamental mode
``2*pi/box``).  The paper's acceptance criterion (§2.1, Fig. 13) is that
the reconstructed-to-original ratio stays within ``1 +/- 0.01`` for all
``k`` below a cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.util.validation import check_3d

__all__ = [
    "PowerSpectrum",
    "power_spectrum",
    "rfft_of",
    "binned_power",
    "spectrum_ratio",
    "binned_worst_deviation",
    "check_spectrum_quality",
]


@dataclass
class PowerSpectrum:
    """Binned isotropic power spectrum.

    Attributes
    ----------
    k:
        Bin-centre wavenumbers in units of the fundamental mode
        (1, 2, 3, ...).
    power:
        Mean mode power per bin (normalized per cell, so comparable
        across grid sizes).
    n_modes:
        Number of Fourier modes in each bin (used by the error model to
        predict ratio variance).
    """

    k: np.ndarray
    power: np.ndarray
    n_modes: np.ndarray


#: Largest rfft mode count whose bin/weight arrays are worth pinning in
#: the per-shape caches (~17 MB of int64 bins at the limit; covers grids
#: to ~128^3).  Bigger grids rebuild per call rather than retaining
#: hundreds of MB for the process lifetime.
_CACHE_MAX_MODES = 1 << 21


def _rfft_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    return (*shape[:-1], shape[-1] // 2 + 1)


def _build_mode_bins(shape: tuple[int, ...]) -> np.ndarray:
    kx = np.fft.fftfreq(shape[0]) * shape[0]
    ky = np.fft.fftfreq(shape[1]) * shape[1]
    kz = np.fft.rfftfreq(shape[2]) * shape[2]
    kk = np.sqrt(
        kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2
    )
    bins = np.rint(kk).astype(np.int64)
    bins.setflags(write=False)
    return bins


def _build_rfft_weights(shape: tuple[int, ...]) -> np.ndarray:
    # rfftn stores only half the kz modes; interior planes weigh 2 so
    # binned power matches the full fftn result.
    weights = np.full(_rfft_shape(shape), 2.0)
    weights[..., 0] = 1.0
    if shape[2] % 2 == 0:
        weights[..., -1] = 1.0
    weights.setflags(write=False)
    return weights


class _LowKModes(NamedTuple):
    """The rfft modes with ``1 <= bin <= nbins`` of one grid shape."""

    index: np.ndarray  # flat rfft index, ascending
    bins: np.ndarray  # their bin
    weights: np.ndarray  # their multiplicity
    counts: np.ndarray  # modes per bin, bins 0..nbins (what is binned)


def _build_low_k_modes(shape: tuple[int, ...], nbins: int) -> _LowKModes:
    bins_flat = _mode_bins(shape).ravel()
    index = np.flatnonzero((bins_flat >= 1) & (bins_flat <= nbins))
    bins = bins_flat[index]
    weights = _rfft_weights(shape).ravel()[index]
    counts = np.bincount(bins, weights=weights, minlength=nbins + 1)
    for arr in (index, bins, weights, counts):
        arr.setflags(write=False)
    return _LowKModes(index, bins, weights, counts)


_cached_mode_bins = lru_cache(maxsize=8)(_build_mode_bins)
_cached_rfft_weights = lru_cache(maxsize=8)(_build_rfft_weights)
_cached_low_k_modes = lru_cache(maxsize=16)(_build_low_k_modes)


def _cacheable(shape: tuple[int, ...]) -> bool:
    return math.prod(_rfft_shape(shape)) <= _CACHE_MAX_MODES


def _mode_bins(shape: tuple[int, ...]) -> np.ndarray:
    """Integer |k| bin index for every rfft mode of a grid of ``shape``.

    Cached per grid shape (read-only) up to ``_CACHE_MAX_MODES``: sweeps
    evaluate many same-shape fields, and rebuilding the 3-D sqrt/rint
    arrays dominated the binning cost.
    """
    return _cached_mode_bins(shape) if _cacheable(shape) else _build_mode_bins(shape)


def _rfft_weights(shape: tuple[int, ...]) -> np.ndarray:
    """Mode multiplicity for every rfft mode of a grid of ``shape``,
    cached like :func:`_mode_bins`."""
    return _cached_rfft_weights(shape) if _cacheable(shape) else _build_rfft_weights(shape)


def _low_k_modes(shape: tuple[int, ...], nbins: int) -> _LowKModes:
    """The modes :func:`binned_power` bins, cached per ``(shape, nbins)``
    like :func:`_mode_bins`: below Nyquist they are a small share of
    the grid (1.5 % of a 64^3 grid's rfft modes for ``nbins=9``)."""
    if _cacheable(shape):
        return _cached_low_k_modes(shape, nbins)
    return _build_low_k_modes(shape, nbins)


def rfft_of(field: np.ndarray, subtract_mean: bool = True) -> np.ndarray:
    """The ``rfftn`` :func:`power_spectrum` bins (of the field minus its
    mean, by default) — keep it to bin one field at several ``nbins``."""
    arr = check_3d(field, "field")
    if subtract_mean:
        arr = arr - arr.mean()
    return np.fft.rfftn(arr)


def binned_power(
    fk: np.ndarray, shape: tuple[int, ...], nbins: int | None = None
) -> PowerSpectrum:
    """Bin :func:`rfft_of` of a field of ``shape`` into ``nbins`` bins
    (default: up to the 1-D Nyquist frequency).

    Only the modes in bins ``1..nbins`` are squared and summed; bin sums
    come out bit-identical to binning the whole grid under a mask (the
    same modes, summed in the same order).
    """
    shape = tuple(shape)
    kmax = min(s // 2 for s in shape)
    if nbins is None:
        nbins = kmax
    nbins = min(nbins, kmax)
    if nbins < 1:
        raise ValueError("grid too small for any spectrum bins")
    modes = _low_k_modes(shape, nbins)
    power = np.abs(fk.ravel()[modes.index]) ** 2 * modes.weights
    sums = np.bincount(modes.bins, weights=power, minlength=nbins + 1)
    counts = modes.counts
    k = np.arange(1, nbins + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_power = np.where(counts[1:] > 0, sums[1:] / counts[1:], 0.0)
    # Normalize per cell so spectra of different grid sizes are comparable.
    return PowerSpectrum(
        k=k, power=mean_power / math.prod(shape), n_modes=counts[1:].astype(np.int64)
    )


def power_spectrum(
    field: np.ndarray,
    nbins: int | None = None,
    subtract_mean: bool = True,
) -> PowerSpectrum:
    """Isotropically binned power spectrum of a 3-D field.

    Parameters
    ----------
    field:
        3-D array (density, temperature, ...).
    nbins:
        Number of k bins (default: up to the 1-D Nyquist frequency).
    subtract_mean:
        Remove the mean first (the DC mode dominates otherwise).
    """
    fk = rfft_of(field, subtract_mean)
    return binned_power(fk, np.shape(field), nbins)


def spectrum_ratio(original: np.ndarray, reconstructed: np.ndarray, nbins: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin ratio ``P'(k)/P(k)`` between reconstructed and original fields."""
    ps_orig = power_spectrum(original, nbins=nbins)
    ps_rec = power_spectrum(reconstructed, nbins=nbins)
    if (ps_orig.power <= 0).any():
        raise ValueError("original spectrum has empty bins; reduce nbins")
    return ps_orig.k, ps_rec.power / ps_orig.power


def binned_worst_deviation(
    ps_orig: PowerSpectrum, ps_rec: PowerSpectrum, k_max: int
) -> float:
    """``max_k |P'(k)/P(k) - 1|`` over ``k < k_max`` for two binned spectra.

    The shared core of the paper's acceptance criterion, operating on
    already-binned spectra so reference-cached evaluators can reuse the
    original's spectrum across many reconstructions.
    """
    if (ps_orig.power <= 0).any():
        raise ValueError("original spectrum has empty bins; reduce nbins")
    ratio = ps_rec.power / ps_orig.power
    mask = ps_orig.k < k_max
    if not mask.any():
        raise ValueError(f"no spectrum bins below k_max={k_max}")
    return float(np.max(np.abs(ratio[mask] - 1.0)))


def check_spectrum_quality(
    original: np.ndarray,
    reconstructed: np.ndarray,
    tolerance: float = 0.01,
    k_max: int = 10,
) -> tuple[bool, float]:
    """The paper's power-spectrum acceptance test.

    Returns ``(passed, worst_deviation)`` where ``worst_deviation`` is
    ``max_k |P'(k)/P(k) - 1|`` over ``k < k_max``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    # Only bins strictly below k_max are inspected, so stop both binning
    # passes at k_max - 1 instead of running them all the way to Nyquist
    # (the floor of 1 keeps the k_max<=1 "no spectrum bins" error path).
    nbins = max(int(k_max) - 1, 1)
    ps_orig = power_spectrum(original, nbins=nbins)
    ps_rec = power_spectrum(reconstructed, nbins=nbins)
    worst = binned_worst_deviation(ps_orig, ps_rec, k_max)
    return worst <= tolerance, worst
