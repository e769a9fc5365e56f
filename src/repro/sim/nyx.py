"""Nyx-like snapshot generator (the paper's Table 2 dataset, synthesized).

A snapshot holds the six fields the paper compresses:

==================  =========================  =======================
Field               Construction               Paper value range
==================  =========================  =======================
baryon_density      lognormal map of the GRF   (0, 1e5)
dark_matter_density lognormal, higher bias     (0, 1e4)
temperature         polytropic ``T0*rho^(g-1)``  (1e2, 1e7)
                    with shock-heating scatter
velocity_x/y/z      linear theory              (-1e8, 1e8)
                    ``v_k ~ i k delta_k/k^2``
==================  =========================  =======================

Construction choices that matter for the reproduction:

- **Fixed phases across redshift.**  The Gaussian field is generated
  once per seed; only its amplitude is scaled by the growth factor
  ``D(z)``.  Partitions therefore evolve coherently through snapshots,
  exactly the behaviour of Figure 1 and the premise of the
  static-vs-adaptive redshift experiment (Fig. 16/17).
- **Fixed global mean densities.**  Baryon and dark-matter densities are
  normalized to mean 1 (units of the cosmic mean), mirroring the paper's
  observation (§4.3) that their overall mean is fixed by the simulation
  and needs no ``MPI_Allreduce``.
- **Heterogeneous partitions.**  The lognormal transform concentrates
  mass in few dense clumps; per-partition means span orders of
  magnitude, which is the variance the adaptive optimizer exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.cosmology import Cosmology, growth_factor, matter_power_spectrum
from repro.sim.grf import gaussian_random_field
from repro.util.rng import default_rng

__all__ = ["FIELD_NAMES", "NyxSnapshot", "NyxSimulator"]

FIELD_NAMES = (
    "baryon_density",
    "dark_matter_density",
    "temperature",
    "velocity_x",
    "velocity_y",
    "velocity_z",
)

#: Physical value ranges from the paper's Table 2, used by validity tests.
FIELD_RANGES: dict[str, tuple[float, float]] = {
    "baryon_density": (0.0, 1e5),
    "dark_matter_density": (0.0, 1e4),
    "temperature": (1e2, 1e7),
    "velocity_x": (-1e8, 1e8),
    "velocity_y": (-1e8, 1e8),
    "velocity_z": (-1e8, 1e8),
}


@dataclass
class NyxSnapshot:
    """One timestep of the synthetic simulation.

    Attributes
    ----------
    fields:
        Mapping of field name to 3-D float32 array (Nyx stores fp32).
    redshift:
        Snapshot redshift.
    box_size:
        Comoving box size in Mpc/h (sets k units in analyses).
    """

    fields: dict[str, np.ndarray]
    redshift: float
    box_size: float
    meta: dict[str, float] = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int, int]:
        return next(iter(self.fields.values())).shape

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(f"unknown field {name!r}; available: {sorted(self.fields)}") from None


class NyxSimulator:
    """Generates Nyx-like snapshots with coherent evolution in redshift.

    Parameters
    ----------
    shape:
        Grid resolution (e.g. ``(128, 128, 128)``).
    box_size:
        Comoving box size in Mpc/h.
    seed:
        Root seed; fixes the white-noise phases for all snapshots.
    cosmo:
        Background cosmology.
    sigma_delta0:
        Standard deviation of the *Gaussian* overdensity at z=0 before
        the lognormal map.  Larger values give stronger partition-to-
        partition heterogeneity (more adaptive-compression headroom).
    temperature_t0:
        Temperature at mean density (K).
    gamma:
        Polytropic index of the temperature-density relation.
    velocity_scale:
        RMS velocity amplitude at z=0 in cm/s (Nyx units).

    Examples
    --------
    >>> sim = NyxSimulator(shape=(32, 32, 32), seed=7)
    >>> snap = sim.snapshot(z=0.5)
    >>> sorted(snap.fields) == sorted(FIELD_NAMES)
    True
    """

    def __init__(
        self,
        shape: tuple[int, int, int] = (128, 128, 128),
        box_size: float = 64.0,
        seed: int | np.random.Generator | None = 42,
        cosmo: Cosmology | None = None,
        sigma_delta0: float = 2.2,
        temperature_t0: float = 1.2e4,
        gamma: float = 1.6,
        velocity_scale: float = 2.0e7,
    ) -> None:
        if len(shape) != 3 or any(s < 4 for s in shape):
            raise ValueError(f"shape must be 3-D with dims >= 4, got {shape}")
        if sigma_delta0 <= 0:
            raise ValueError(f"sigma_delta0 must be positive, got {sigma_delta0}")
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1 (polytropic), got {gamma}")
        self.shape = tuple(int(s) for s in shape)
        self.box_size = float(box_size)
        self.cosmo = cosmo or Cosmology()
        self.sigma_delta0 = float(sigma_delta0)
        self.temperature_t0 = float(temperature_t0)
        self.gamma = float(gamma)
        self.velocity_scale = float(velocity_scale)

        rng = default_rng(seed)
        # One base Gaussian field per density component, fixed phases.
        pk = lambda k: matter_power_spectrum(k, z=0.0, cosmo=self.cosmo)  # noqa: E731
        self._delta_b = gaussian_random_field(
            self.shape, pk, seed=rng, box_size=self.box_size, target_sigma=1.0
        )
        self._delta_dm = 0.9 * self._delta_b + 0.44 * gaussian_random_field(
            self.shape, pk, seed=rng, box_size=self.box_size, target_sigma=1.0
        )
        self._delta_dm /= self._delta_dm.std()
        # Small-scale thermal scatter (shock heating proxy), fixed phases.
        self._theta = gaussian_random_field(
            self.shape,
            lambda k: np.where(k > 0, 1.0 / np.maximum(k, 1e-30), 0.0),
            seed=rng,
            box_size=self.box_size,
            target_sigma=1.0,
        )
        self._delta_b_fft = np.fft.fftn(self._delta_b)
        # Wavenumber grids for the velocity solve, built once: a redshift
        # schedule asks for the same three components per snapshot, and
        # rebuilding three meshgrids per axis per snapshot dominated the
        # velocity cost.  Broadcastable 1-D axes carry the same values as
        # the full ``meshgrid`` arrays (velocities are bitwise identical).
        k_axes = [
            np.fft.fftfreq(n, d=self.box_size / n) * 2.0 * np.pi for n in self.shape
        ]
        self._vel_k_axes = (
            k_axes[0][:, None, None],
            k_axes[1][None, :, None],
            k_axes[2][None, None, :],
        )
        k2 = (
            self._vel_k_axes[0] ** 2
            + self._vel_k_axes[1] ** 2
            + self._vel_k_axes[2] ** 2
        )
        k2[0, 0, 0] = 1.0  # avoid division by zero; DC mode forced to zero below
        self._vel_k2 = k2

    # -- field constructors ------------------------------------------------

    def _lognormal_density(self, delta: np.ndarray, sigma: float) -> np.ndarray:
        """Mean-1 lognormal density from a unit-variance Gaussian field."""
        g = sigma * delta
        rho = np.exp(g - 0.5 * sigma**2)
        # Exact mean-1 normalization (the analytic factor is only exact for
        # infinite volumes).
        return rho / rho.mean()

    def _velocity(self, z: float, axis: int) -> np.ndarray:
        """Linear-theory peculiar velocity component: ``v_k = i f aH delta_k k/k^2``."""
        vk = 1j * self._vel_k_axes[axis] / self._vel_k2 * self._delta_b_fft
        vk[0, 0, 0] = 0.0
        v = np.fft.ifftn(vk).real
        d = growth_factor(z, self.cosmo)
        scale = self.velocity_scale * d / max(v.std(), 1e-30)
        return v * scale

    # -- public API ---------------------------------------------------------

    def snapshot(self, z: float = 0.0, dtype: type = np.float32) -> NyxSnapshot:
        """Generate the six-field snapshot at redshift ``z``.

        Lower redshift means larger growth factor, hence higher density
        contrast (sparser, clumpier formation — §4.2's explanation for
        improvement growing as redshift drops).
        """
        if z < 0:
            raise ValueError(f"redshift must be non-negative, got {z}")
        d = float(growth_factor(z, self.cosmo))
        sigma_b = self.sigma_delta0 * d
        sigma_dm = 1.1 * self.sigma_delta0 * d

        rho_b = self._lognormal_density(self._delta_b, sigma_b)
        rho_dm = self._lognormal_density(self._delta_dm, sigma_dm)

        temp = (
            self.temperature_t0
            * np.power(np.maximum(rho_b, 1e-6), self.gamma - 1.0)
            * np.exp(0.35 * self._theta)
        )
        np.clip(temp, *FIELD_RANGES["temperature"], out=temp)

        fields = {
            "baryon_density": rho_b,
            "dark_matter_density": rho_dm,
            "temperature": temp,
            "velocity_x": self._velocity(z, 0),
            "velocity_y": self._velocity(z, 1),
            "velocity_z": self._velocity(z, 2),
        }
        fields = {name: np.ascontiguousarray(arr, dtype=dtype) for name, arr in fields.items()}
        return NyxSnapshot(
            fields=fields,
            redshift=float(z),
            box_size=self.box_size,
            meta={"growth_factor": d, "sigma_b": sigma_b, "sigma_dm": sigma_dm},
        )
