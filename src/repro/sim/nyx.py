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

Memory, since the simulator shares its node with the compressor: a
simulator keeps six contiguous float64 grids and nothing else — the two
Gaussian density fields, the heating factor ``exp(0.35*theta)`` and the
three velocity patterns, all z-independent.  Building it peaks at nine
grids (while the second velocity component is transformed).  A
``snapshot()`` allocates its outputs and one float64 scratch, in which
each density and the temperature are computed in place and cast into
their outputs as soon as they are final; velocities are scaled straight
into theirs.  The scratch is allocated after the density outputs and
freed before the velocity outputs, so it leaves no hole between the
long-lived outputs of a stream of snapshots.  Every operation runs in the
order a field-at-a-time evaluation would run it, and every reduction
(mean, std) reads the same memory layout, so the snapshots are
bit-identical to that evaluation: ``tests/sim/test_nyx.py`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.cosmology import Cosmology, growth_factor, matter_power_spectrum
from repro.sim.grf import gaussian_random_field, wavenumber_axes
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
        delta_dm = gaussian_random_field(
            self.shape, pk, seed=rng, box_size=self.box_size, target_sigma=1.0
        )
        delta_dm *= 0.44
        delta_dm += 0.9 * self._delta_b
        delta_dm /= delta_dm.std()
        self._delta_dm = delta_dm
        # Small-scale thermal scatter (shock heating proxy), fixed phases.
        # Only its factor ``exp(0.35*theta)`` enters a snapshot, and it does
        # not depend on z, so that factor is what the simulator keeps.
        heating = gaussian_random_field(
            self.shape,
            lambda k: np.where(k > 0, 1.0 / np.maximum(k, 1e-30), 0.0),
            seed=rng,
            box_size=self.box_size,
            target_sigma=1.0,
        )
        heating *= 0.35
        self._heating = np.exp(heating, out=heating)
        self._velocities = self._linear_velocities()

    # -- field constructors ------------------------------------------------

    @staticmethod
    def _lognormal_density(delta: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
        """Mean-1 lognormal density from a unit-variance Gaussian field, in ``out``."""
        np.multiply(sigma, delta, out=out)
        out -= 0.5 * sigma**2
        np.exp(out, out=out)
        # Exact mean-1 normalization (the analytic factor is only exact for
        # infinite volumes).
        out /= out.mean()
        return out

    def _linear_velocities(self) -> list[tuple[np.ndarray, float]]:
        """Linear-theory velocity patterns ``v_k = i k delta_k / k^2``.

        The pattern of each component does not depend on z (a snapshot
        only rescales it by ``D(z)``), so it is transformed once here and
        kept as a contiguous float64 copy with its standard deviation,
        taken on the transform's real view as the pins require.  The
        modes are filled one x-plane at a time (``k^2`` summed in the same
        order as the full grid), so no full ``k^2`` grid or complex
        temporary is built; the last component overwrites the spectrum of
        ``delta_b``, whose last reader it is.
        """
        axes = wavenumber_axes(self.shape, self.box_size)
        kxy2 = axes[0] ** 2 + axes[1] ** 2
        kz2 = axes[2][0] ** 2
        delta_k = self._delta_b.astype(np.complex128)
        np.fft.fftn(delta_k, out=delta_k)
        velocities = []
        for axis, k in enumerate(axes):
            vk = np.empty_like(delta_k) if axis < 2 else delta_k
            ik = np.broadcast_to(1j * k, (self.shape[0], *k.shape[1:]))
            for x in range(self.shape[0]):
                k2 = kxy2[x] + kz2
                if x == 0:
                    k2[0, 0] = 1.0  # avoid division by zero; DC mode forced to zero below
                np.multiply(ik[x] / k2, delta_k[x], out=vk[x])
            vk[0, 0, 0] = 0.0
            np.fft.ifftn(vk, out=vk)
            v = vk.real
            std = max(v.std(), 1e-30)
            velocities.append((v.copy(), std))
            del v, vk  # freed before the next component's buffer is allocated
        return velocities

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

        # All float64 work happens in one scratch grid, allocated after the
        # density outputs so that freeing it leaves no hole below them.
        fields = {name: np.empty(self.shape, dtype) for name in FIELD_NAMES[:3]}
        scratch = np.empty(self.shape)
        fields["baryon_density"][...] = self._lognormal_density(self._delta_b, sigma_b, scratch)
        # Temperature ``T0 * max(rho_b, 1e-6)**(gamma-1) * exp(0.35*theta)``,
        # from the float64 baryon density still in the scratch.
        np.maximum(scratch, 1e-6, out=scratch)
        np.power(scratch, self.gamma - 1.0, out=scratch)
        scratch *= self.temperature_t0
        scratch *= self._heating
        np.clip(scratch, *FIELD_RANGES["temperature"], out=scratch)
        fields["temperature"][...] = scratch
        fields["dark_matter_density"][...] = self._lognormal_density(
            self._delta_dm, sigma_dm, scratch
        )
        del scratch
        for name, (v, std) in zip(FIELD_NAMES[3:], self._velocities):
            fields[name] = out = np.empty(self.shape, dtype)
            np.multiply(v, self.velocity_scale * d / std, out=out, casting="unsafe")
        return NyxSnapshot(
            fields=fields,
            redshift=float(z),
            box_size=self.box_size,
            meta={"growth_factor": d, "sigma_b": sigma_b, "sigma_dm": sigma_dm},
        )
