"""Background cosmology: growth factor and linear matter power spectrum.

Only the pieces the synthetic snapshot generator needs:

- the linear growth factor ``D(z)`` via the Carroll-Press-Turner
  approximation, normalized to ``D(0) = 1`` — structure amplitude grows
  as redshift decreases, which drives the paper's Figure 16/17
  observation that optimized error-bound maps drift between snapshots;
- the BBKS transfer function and a power-law primordial spectrum, which
  give the synthetic fields a realistic distribution of power across
  scales (so the power-spectrum analysis in :mod:`repro.analysis` sees a
  cosmology-shaped ``P(k)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cosmology", "growth_factor", "bbks_transfer", "matter_power_spectrum"]


@dataclass(frozen=True)
class Cosmology:
    """Flat LCDM parameters (defaults near Planck values)."""

    omega_m: float = 0.31
    omega_l: float = 0.69
    h: float = 0.68
    n_s: float = 0.96
    sigma8: float = 0.81

    def __post_init__(self) -> None:
        if not 0 < self.omega_m <= 1:
            raise ValueError(f"omega_m must be in (0, 1], got {self.omega_m}")
        if self.omega_l < 0:
            raise ValueError(f"omega_l must be non-negative, got {self.omega_l}")
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")


def _omega_m_z(cosmo: Cosmology, z: float) -> float:
    """Matter density parameter at redshift ``z`` (flat universe)."""
    a3 = (1.0 + z) ** 3
    return cosmo.omega_m * a3 / (cosmo.omega_m * a3 + cosmo.omega_l)


def _growth_unnormalized(cosmo: Cosmology, z: float) -> float:
    """Carroll, Press & Turner (1992) growth approximation, times a."""
    om = _omega_m_z(cosmo, z)
    ol = 1.0 - om
    g = 2.5 * om / (om ** (4.0 / 7.0) - ol + (1.0 + om / 2.0) * (1.0 + ol / 70.0))
    return g / (1.0 + z)


def growth_factor(z: float | np.ndarray, cosmo: Cosmology | None = None) -> float | np.ndarray:
    """Linear growth factor ``D(z)`` normalized so ``D(0) = 1``.

    Monotonically decreasing in ``z``: earlier snapshots (large z) have
    smoother, lower-contrast fields.
    """
    cosmo = cosmo or Cosmology()
    z_arr = np.asarray(z, dtype=np.float64)
    if (z_arr < 0).any():
        raise ValueError("redshift must be non-negative")
    d0 = _growth_unnormalized(cosmo, 0.0)
    out = np.vectorize(lambda zz: _growth_unnormalized(cosmo, zz) / d0)(z_arr)
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def bbks_transfer(k: np.ndarray, cosmo: Cosmology | None = None) -> np.ndarray:
    """BBKS (Bardeen et al. 1986) cold-dark-matter transfer function.

    ``k`` in h/Mpc.  T(k) -> 1 for k -> 0 and falls as ~ln(k)/k^2 at
    small scales.
    """
    cosmo = cosmo or Cosmology()
    k = np.asarray(k, dtype=np.float64)
    if (k < 0).any():
        raise ValueError("wavenumbers must be non-negative")
    gamma = cosmo.omega_m * cosmo.h  # shape parameter
    # log1p(2.34q)/(2.34q) * (1 + 3.89q + (16.1q)^2 + (5.46q)^3 + (6.71q)^4)^-0.25
    # in three grids, in the expression's operation order (T = 1 at q = 0).
    q = np.divide(k, max(gamma, 1e-12), out=np.empty_like(k))
    at_zero = ~(q > 0)
    t = np.multiply(q, 3.89, out=np.empty_like(k))
    t += 1
    term = np.empty_like(q)
    for coeff, power in ((16.1, 2), (5.46, 3), (6.71, 4)):
        np.multiply(q, coeff, out=term)
        np.power(term, power, out=term)
        t += term
    np.power(t, -0.25, out=t)
    q *= 2.34
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(q, out=term)
        term /= q
    t *= term
    t[at_zero] = 1.0
    return t


def matter_power_spectrum(
    k: np.ndarray,
    z: float = 0.0,
    cosmo: Cosmology | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Linear matter power spectrum ``P(k, z)`` (arbitrary normalization).

    ``P(k) = amplitude * k**n_s * T(k)**2 * D(z)**2``; the snapshot
    generator renormalizes the field variance afterwards, so
    ``amplitude`` only sets relative units.
    """
    cosmo = cosmo or Cosmology()
    k = np.asarray(k, dtype=np.float64)
    d = growth_factor(z, cosmo)
    # amplitude * k^n_s * T^2 * D^2, left to right (k^n_s = 0 at k = 0).
    t2 = bbks_transfer(k, cosmo)
    np.square(t2, out=t2)
    p = np.power(k, cosmo.n_s, out=np.empty_like(k))
    p[~(k > 0)] = 0.0
    p *= amplitude
    t2 *= p
    t2 *= d**2
    return t2
