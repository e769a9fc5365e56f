"""Gaussian random field synthesis via FFT filtering.

Standard approach: draw real white noise, transform to Fourier space,
multiply by ``sqrt(P(k))``, transform back.  Because the filter is real
and even, the result is exactly real.  Phases are a function of the seed
alone, so two fields generated with the same seed but different ``P(k)``
amplitudes (e.g. different redshifts) have identical structure at
different contrast — the property the multi-snapshot experiments need.

Memory: a field of ``N`` cells costs one complex buffer (``2N`` float64)
that the forward transform, the filter and the inverse transform all
reuse, plus the ``N``-cell result.  ``P(k)`` and its square root are
evaluated and dropped before the noise is drawn, so their temporaries
never coexist with the buffer.  The result is a C-contiguous copy of the
buffer's real part; its mean and standard deviation are taken on the
buffer's strided real view *before* that copy, because a reduction's
summation order follows the memory layout and the fields are pinned bit
for bit.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.util.rng import default_rng

__all__ = ["wavenumber_axes", "wavenumber_grid", "gaussian_random_field"]


def wavenumber_axes(shape: tuple[int, ...], box_size: float = 1.0) -> list[np.ndarray]:
    """Per-axis wavevector components, each shaped to broadcast over ``shape``.

    Axis ``i`` holds ``2*pi/box_size`` times the FFT mode numbers along
    that axis, with length 1 on every other axis.
    """
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    return [
        (np.fft.fftfreq(n, d=box_size / n) * 2.0 * np.pi).reshape(
            [n if i == axis else 1 for i in range(len(shape))]
        )
        for axis, n in enumerate(shape)
    ]


def wavenumber_grid(shape: tuple[int, ...], box_size: float = 1.0) -> np.ndarray:
    """Magnitude of the comoving wavevector for every FFT mode.

    ``k`` is in units of ``2*pi/box_size`` times integer mode numbers,
    i.e. the fundamental mode has ``|k| = 2*pi/box_size``.  The squared
    axes are summed by broadcasting, so only the result is full size.
    """
    k2 = sum(k**2 for k in wavenumber_axes(shape, box_size))
    return np.sqrt(k2, out=k2)


def gaussian_random_field(
    shape: tuple[int, int, int],
    power_spectrum: Callable[[np.ndarray], np.ndarray],
    seed: int | np.random.Generator | None = None,
    box_size: float = 1.0,
    target_sigma: float | None = None,
) -> np.ndarray:
    """Generate a real 3-D Gaussian random field with spectrum ``P(k)``.

    Every argument is checked before the noise is drawn, so a refused
    call leaves a shared generator where it was.

    Parameters
    ----------
    shape:
        Grid dimensions.
    power_spectrum:
        Callable mapping ``|k|`` (array) to finite, non-negative power.
    seed:
        Seed or generator; fixes the phases.
    box_size:
        Physical box size (sets the k units fed to ``power_spectrum``).
    target_sigma:
        If given, rescale the field to this exact standard deviation
        (mean is always removed).

    Returns
    -------
    A C-contiguous float64 array of ``shape``.
    """
    rng = default_rng(seed)
    if len(shape) != 3:
        raise ValueError(f"shape must be 3-D, got {shape}")
    if target_sigma is not None and target_sigma <= 0:
        raise ValueError(f"target_sigma must be positive, got {target_sigma}")
    k = wavenumber_grid(shape, box_size)
    pk = np.asarray(power_spectrum(k), dtype=np.float64)
    if pk.shape != k.shape:
        raise ValueError("power_spectrum must return an array matching the k grid")
    del k
    if not np.isfinite(pk).all():
        raise ValueError("power spectrum must be finite (P(k) holds NaN or inf)")
    if (pk < 0).any():
        raise ValueError("power spectrum must be non-negative")
    pk[(0,) * len(shape)] = 0.0  # remove the DC mode
    amplitude = np.sqrt(pk)
    del pk
    buf = rng.standard_normal(shape).astype(np.complex128)
    np.fft.fftn(buf, out=buf)
    buf *= amplitude
    del amplitude
    np.fft.ifftn(buf, out=buf)
    field = buf.real
    field -= field.mean()
    if target_sigma is not None:
        current = field.std()
        if current == 0:
            raise ValueError("degenerate field (zero variance); check power spectrum")
        field *= target_sigma / current
    return field.copy()
