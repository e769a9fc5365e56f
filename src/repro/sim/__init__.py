"""Synthetic Nyx-like cosmology simulation substrate.

The paper's experiments run on Nyx snapshots (Table 2: six 3-D fields —
baryon density, dark matter density, temperature, velocity x/y/z).  We
cannot ship those datasets, so this package synthesizes statistically
comparable fields:

- :mod:`repro.sim.cosmology` — linear growth factor and a BBKS-type
  matter power spectrum, so structure grows realistically with redshift,
- :mod:`repro.sim.grf` — Gaussian random field synthesis via FFT
  filtering of white noise,
- :mod:`repro.sim.nyx` — the :class:`NyxSimulator` that assembles the
  six fields (lognormal densities, polytropic temperature, linear-theory
  velocities) with fixed phases across redshifts, matching the paper's
  Figure 1 behaviour of partitions evolving through snapshots,
- :mod:`repro.sim.io` — a simple snapshot container (``.npz`` standing
  in for Nyx's HDF5 plotfiles).
"""

from repro.sim.cosmology import Cosmology, bbks_transfer, growth_factor, matter_power_spectrum
from repro.sim.grf import gaussian_random_field, wavenumber_grid
from repro.sim.nyx import FIELD_NAMES, NyxSimulator, NyxSnapshot
from repro.sim.io import load_snapshot, save_snapshot

__all__ = [
    "Cosmology",
    "growth_factor",
    "bbks_transfer",
    "matter_power_spectrum",
    "gaussian_random_field",
    "wavenumber_grid",
    "NyxSimulator",
    "NyxSnapshot",
    "FIELD_NAMES",
    "save_snapshot",
    "load_snapshot",
]
