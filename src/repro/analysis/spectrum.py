"""3-D matter power spectrum, the paper's primary FFT-based analysis.

The density field, minus its mean, is Fourier transformed; mode powers
``|delta_k|^2`` are binned by integer wavenumber (in units of the
fundamental mode ``2*pi/box``).  The paper's acceptance criterion (§2.1,
Fig. 13) is that the reconstructed-to-original ratio stays within
``1 +/- 0.01`` for all ``k`` below a cutoff.

Two transforms feed one binning, picked by a fixed rule of ``(shape,
nbins)`` (:func:`low_k_only`):

- ``4 * nbins <= min(shape)``: a pruned separable DFT computes only the
  modes the bins read — one real matmul along z against cached
  ``[cos | -sin]`` twiddles for ``kz = 0..nbins``, then complex matmuls
  along x and y for ``k = -nbins..nbins`` (the rule keeps ``nbins <
  n/2`` on every axis, so ``+-nbins`` never alias);
- otherwise (Nyquist binning included): :func:`fft_spectrum`, the
  centred field ``rfft``'d along z a few x-planes at a time and cut to
  ``kz <= nbins``, then ``fft``'d in place along y and, on the ``|ky| <=
  nbins`` rows, along x: the bits of masking the whole ``rfftn``.  The
  R-Q model and the budget inversion read it below ``k_max`` (128^3,
  ``nbins = 9``: ~8 ms and ~3 MB traced, against ~22 ms and ~51 MB for
  the whole ``rfftn``).

Only the pruned DFT's O(n * nbins) operands are cached, per ``(shape,
nbins)``; the FFT path selects its modes on its plane box per call, and
no bin, weight or transform array of the full grid is kept.

Measured crossover (2-vCPU x86-64 VM, NumPy 2.4 with OpenBLAS): the
pruned DFT beats a full ``rfftn`` up to ``nbins`` of 0.34-0.42 ``*
min(shape)``; the rule stops at 0.25 for margin (``nbins = 9``: 0.7 ms
at 64^3, 5.5 ms at 128^3).  Both transforms remove the mean before
summing, so they agree to ~1e-15 relative, and they sum each bin's
modes in the same order.
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
    "low_k_only",
    "fft_spectrum",
    "spectrum_ratio",
    "binned_worst_deviation",
    "nbins_below",
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


class _LowKModes(NamedTuple):
    """The modes with ``1 <= bin <= nbins`` of one transform's output."""

    index: np.ndarray  # flat index into the transform, ascending
    bins: np.ndarray  # their bin
    weights: np.ndarray  # their multiplicity
    counts: np.ndarray  # modes per bin, bins 0..nbins (what is binned)


def _box_modes(
    kx: np.ndarray, ky: np.ndarray, kz: np.ndarray, nz: int, nbins: int
) -> _LowKModes:
    """The binned modes of a plane box: the transform's output at integer
    wavenumbers ``kx`` x ``ky`` x ``kz`` (its C order, which is rfftn's
    order on the modes kept), of a grid ``nz`` cells deep in z."""
    r2 = (kx**2)[:, None, None] + (ky**2)[None, :, None] + kz**2
    # A mode's bin is rint(|k|): 1..nbins exactly for |k|^2 in 1..nbins^2 +
    # nbins (no integer's square root is a half-integer).
    keep = (r2 >= 1) & (r2 <= nbins * (nbins + 1))
    index = np.flatnonzero(keep)
    bins = np.rint(np.sqrt(r2[keep])).astype(np.int64)
    # rfftn stores only half the kz modes: interior planes weigh 2, the
    # kz = 0 plane (and an even grid's Nyquist plane) 1, so binned power
    # matches the full fftn result.
    plane_weights = np.where((kz == 0) | (2 * kz == nz), 1.0, 2.0)
    weights = np.broadcast_to(plane_weights, r2.shape)[keep]
    counts = np.bincount(bins, weights=weights, minlength=nbins + 1)
    for arr in (index, bins, weights, counts):
        arr.setflags(write=False)
    return _LowKModes(index, bins, weights, counts)


def _axis_modes(n: int, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an ``n``-point FFT's output (``fftfreq`` order) with
    ``|k| <= nbins``, and their ``k``."""
    k = np.r_[0 : (n + 1) // 2, -(n // 2) : 0]
    rows = np.flatnonzero(np.abs(k) <= nbins)
    return rows, k[rows]


class _LowKTransform(NamedTuple):
    """Cached operands of the pruned DFT of one ``(shape, nbins)``."""

    tz: np.ndarray  # (nz, 2*(nbins+1)) real: [cos, -sin] interleaved per kz
    wx: np.ndarray  # (2*nbins+1, nx) complex, rows in fftfreq order
    wy: np.ndarray  # (2*nbins+1, ny) complex, rows in fftfreq order
    modes: _LowKModes  # over the (kx, ky, kz) output cube


def _twiddles(ks: np.ndarray, size: int) -> np.ndarray:
    """``exp(-2*pi*i*k*j/size)`` for each ``k`` (rows) and ``j`` (columns);
    the phase is reduced mod ``size`` in integers first."""
    return np.exp(-2j * np.pi * (np.outer(ks, np.arange(size)) % size) / size)


@lru_cache(maxsize=16)
def _low_k_transform(shape: tuple[int, ...], nbins: int) -> _LowKTransform:
    """Twiddles are O(n * nbins) and the output cube O(nbins^3): always
    cached, read-only."""
    # kx, ky = 0..nbins, -nbins..-1 (rfftn's order, so the selected modes
    # are summed in the order the FFT path sums them); kz = 0..nbins.
    k = np.r_[0 : nbins + 1, -nbins:0]
    kz = np.arange(nbins + 1)
    tz = np.empty((shape[2], 2 * (nbins + 1)))
    tz.view(np.complex128)[...] = _twiddles(kz, shape[2]).T
    wx, wy = _twiddles(k, shape[0]), _twiddles(k, shape[1])
    for arr in (tz, wx, wy):
        arr.setflags(write=False)
    return _LowKTransform(tz, wx, wy, _box_modes(k, k, kz, shape[2], nbins))


def _resolve_nbins(shape: tuple[int, ...], nbins: int | None) -> int:
    """``nbins`` clamped to the 1-D Nyquist frequency (its default)."""
    kmax = min(s // 2 for s in shape)
    nbins = kmax if nbins is None else min(nbins, kmax)
    if nbins < 1:
        raise ValueError("grid too small for any spectrum bins")
    return nbins


def low_k_only(shape: tuple[int, ...], nbins: int | None = None) -> bool:
    """Whether :func:`power_spectrum` of a field of ``shape`` computes only
    the modes of its ``nbins`` bins (a pruned DFT) instead of the FFT
    path — the fixed rule ``4 * nbins <= min(shape)``."""
    shape = tuple(shape)
    return 4 * _resolve_nbins(shape, nbins) <= min(shape)


def _binned(
    values: np.ndarray, modes: _LowKModes, shape: tuple[int, ...], nbins: int
) -> PowerSpectrum:
    """Bin a transform's flat ``values`` at ``modes`` (either transform)."""
    power = np.abs(values[modes.index])
    np.square(power, out=power)
    power *= modes.weights
    sums = np.bincount(modes.bins, weights=power, minlength=nbins + 1)
    counts = modes.counts
    k = np.arange(1, nbins + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_power = np.where(counts[1:] > 0, sums[1:] / counts[1:], 0.0)
    # Normalize per cell so spectra of different grid sizes are comparable.
    return PowerSpectrum(
        k=k, power=mean_power / math.prod(shape), n_modes=counts[1:].astype(np.int64)
    )


#: Elements of the field centred per transform step: a 256 KB slab stays
#: in cache, where centring the whole field first would write it out again.
_SLAB_ELEMENTS = 1 << 15


def fft_spectrum(field: np.ndarray, nbins: int | None = None) -> PowerSpectrum:
    """Bins ``1..nbins`` (default: to the 1-D Nyquist frequency) of the
    ``rfftn`` of the field minus its mean, from its ``kz <= nbins``
    planes alone, whatever :func:`low_k_only` says: the bits of masking
    the whole ``rfftn`` (rfftn's axis order and 1-D transforms)."""
    arr = check_3d(field, "field")
    nbins = _resolve_nbins(arr.shape, nbins)
    nx, ny, nz = arr.shape
    rx, kx = _axis_modes(nx, nbins)
    ry, ky = _axis_modes(ny, nbins)
    kz = np.arange(min(nbins, nz // 2) + 1)
    # Selected before the transform exists, so the two never peak together.
    modes = _box_modes(kx, ky, kz, nz, nbins)
    box = np.empty((nx, ny, kz.size), np.complex128)
    step = max(1, _SLAB_ELEMENTS // (ny * nz))
    slab = np.empty((min(step, nx), ny, nz))
    mean = arr.mean()
    for start in range(0, nx, step):
        m = min(step, nx - start)
        np.subtract(arr[start : start + m], mean, out=slab[:m])
        box[start : start + m] = np.fft.rfft(slab[:m], axis=2)[..., : kz.size]
    np.fft.fft(box, axis=1, out=box)
    box = box[:, ry] if ry.size < ny else box
    np.fft.fft(box, axis=0, out=box)
    box = box[rx] if rx.size < nx else box
    return _binned(box.ravel(), modes, arr.shape, nbins)


def _low_k_power(arr: np.ndarray, nbins: int) -> PowerSpectrum:
    """The pruned DFT: bins ``1..nbins`` of a contiguous float64 field
    with ``4 * nbins <= min(shape)``, without the rest of the transform."""
    nx, ny, nz = arr.shape
    op = _low_k_transform(arr.shape, nbins)
    # z: the field minus its mean (so no sum carries it), slab by slab,
    # against the real [cos, -sin] twiddles: rows come out as complex kz.
    # The three products are the transform's work, as dgemm/zgemm on one
    # BLAS thread (repro.util.fanout), so a sweep's spectra fan out
    # through thread_map alone.
    rows = arr.reshape(-1, nz)
    step = max(1, _SLAB_ELEMENTS // nz)
    fz = np.empty((rows.shape[0], op.tz.shape[1]))
    slab = np.empty((min(step, rows.shape[0]), nz))
    mean = arr.mean()
    for start in range(0, rows.shape[0], step):
        part = rows[start : start + step]
        np.subtract(part, mean, out=slab[: len(part)])
        np.matmul(slab[: len(part)], op.tz, out=fz[start : start + step])  # repro-lint: disable=RL014
    # x, then y (on what x left): complex matmuls for k = -nbins..nbins.
    fxz = op.wx @ fz.view(np.complex128).reshape(nx, -1)  # repro-lint: disable=RL014
    f = np.matmul(op.wy, fxz.reshape(len(op.wx), ny, -1))  # repro-lint: disable=RL014
    return _binned(f.ravel(), op.modes, arr.shape, nbins)


def power_spectrum(field: np.ndarray, nbins: int | None = None) -> PowerSpectrum:
    """Isotropically binned power spectrum of a 3-D field (minus its mean).

    Parameters
    ----------
    field:
        3-D array (density, temperature, ...).
    nbins:
        Number of k bins (default: up to the 1-D Nyquist frequency).
        Where :func:`low_k_only` holds, only these bins' modes are
        transformed (a pruned DFT); elsewhere :func:`fft_spectrum`.
    """
    arr = check_3d(field, "field")
    nbins = _resolve_nbins(arr.shape, nbins)
    if low_k_only(arr.shape, nbins):
        return _low_k_power(arr, nbins)
    return fft_spectrum(arr, nbins)


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


def nbins_below(k_max: int) -> int:
    """Bins ``1..k_max-1``: the acceptance test inspects only bins
    strictly below ``k_max``, so binning further would be wasted work
    (:func:`power_spectrum` clamps to the grid's Nyquist; the floor of 1
    keeps the ``k_max <= 1`` "no spectrum bins" error path)."""
    return max(int(k_max) - 1, 1)


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
    nbins = nbins_below(k_max)
    ps_orig = power_spectrum(original, nbins=nbins)
    ps_rec = power_spectrum(reconstructed, nbins=nbins)
    worst = binned_worst_deviation(ps_orig, ps_rec, k_max)
    return worst <= tolerance, worst
