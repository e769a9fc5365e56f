"""Grid-based halo finder, following Nyx's density-threshold algorithm.

Per the paper (§3.4): cells with density above ``t_boundary`` are
*candidates*; connected candidate groups whose maximum density exceeds
``t_halo`` are *halos*.  For each halo we record

- mass — cell-weighted density sum times cell volume,
- position — centroid of member cells,
- size — member cell count,
- peak density.

All per-halo reductions are ``bincount`` based (no Python loop over
halos).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.labeling import label_components
from repro.util.validation import check_3d

__all__ = ["HaloCatalog", "find_halos"]


@dataclass
class HaloCatalog:
    """Halos found in one density field, sorted by descending mass."""

    masses: np.ndarray
    positions: np.ndarray  # (n, 3) cell coordinates of centroids
    sizes: np.ndarray  # member cell counts
    peak_densities: np.ndarray
    t_boundary: float
    t_halo: float
    n_candidate_cells: int

    @property
    def n_halos(self) -> int:
        return len(self.masses)

    def select_by_mass(self, min_mass: float) -> "HaloCatalog":
        """Sub-catalog of halos with mass >= ``min_mass``."""
        keep = self.masses >= min_mass
        return HaloCatalog(
            masses=self.masses[keep],
            positions=self.positions[keep],
            sizes=self.sizes[keep],
            peak_densities=self.peak_densities[keep],
            t_boundary=self.t_boundary,
            t_halo=self.t_halo,
            n_candidate_cells=self.n_candidate_cells,
        )


def find_halos(
    density: np.ndarray,
    t_boundary: float,
    t_halo: float | None = None,
    cell_volume: float = 1.0,
    periodic: bool = True,
    min_cells: int = 1,
) -> HaloCatalog:
    """Find halos in a 3-D density field.

    Parameters
    ----------
    density:
        3-D density array.
    t_boundary:
        Candidate-cell threshold (the paper's ``t_boundary``).
    t_halo:
        Peak threshold a group must exceed to count as a halo; defaults
        to ``2 * t_boundary``.
    cell_volume:
        Volume weight applied to masses.
    periodic:
        Whether components wrap across the box boundary.
    min_cells:
        Discard groups smaller than this many cells.
    """
    rho = check_3d(density, "density")
    if t_halo is None:
        t_halo = 2.0 * t_boundary
    if t_halo < t_boundary:
        raise ValueError(
            f"t_halo ({t_halo}) must be >= t_boundary ({t_boundary})"
        )

    mask = rho > t_boundary
    labels, n_groups = label_components(mask, periodic=periodic)
    n_candidates = int(mask.sum())
    if n_groups == 0:
        empty = np.empty(0)
        return HaloCatalog(
            masses=empty,
            positions=np.empty((0, 3)),
            sizes=np.empty(0, dtype=np.int64),
            peak_densities=empty,
            t_boundary=float(t_boundary),
            t_halo=float(t_halo),
            n_candidate_cells=n_candidates,
        )

    lab_flat = labels.ravel()
    member = lab_flat > 0
    lab_m = lab_flat[member]
    rho_m = rho.ravel()[member]

    sizes = np.bincount(lab_m, minlength=n_groups + 1)[1:]
    masses = np.bincount(lab_m, weights=rho_m, minlength=n_groups + 1)[1:] * cell_volume
    peaks = np.zeros(n_groups + 1)
    np.maximum.at(peaks, lab_m, rho_m)
    peaks = peaks[1:]

    coords = np.stack(np.unravel_index(np.flatnonzero(member), rho.shape), axis=1)
    centroids = np.stack(
        [
            np.bincount(lab_m, weights=coords[:, d], minlength=n_groups + 1)[1:]
            for d in range(3)
        ],
        axis=1,
    ) / np.maximum(sizes, 1)[:, None]

    is_halo = (peaks > t_halo) & (sizes >= min_cells)
    order = np.argsort(-masses[is_halo], kind="stable")
    return HaloCatalog(
        masses=masses[is_halo][order],
        positions=centroids[is_halo][order],
        sizes=sizes[is_halo][order],
        peak_densities=peaks[is_halo][order],
        t_boundary=float(t_boundary),
        t_halo=float(t_halo),
        n_candidate_cells=n_candidates,
    )
