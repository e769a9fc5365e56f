"""Grid-based halo finder, following Nyx's density-threshold algorithm.

Per the paper (§3.4): cells with density above ``t_boundary`` are
*candidates*; connected candidate groups whose maximum density exceeds
``t_halo`` are *halos*.  One pass over the candidates
(:func:`~repro.analysis.labeling.candidate_components`) gives each its
6-connected group; every per-halo quantity is then reduced from those
candidate indices and group ids, with no full-grid label array:

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

from repro.analysis.labeling import candidate_components
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

    flat, ids, n_groups = candidate_components(rho > t_boundary, periodic=periodic)
    rho_m = rho.ravel()[flat]
    sizes = np.bincount(ids)
    masses = np.bincount(ids, weights=rho_m) * cell_volume
    peaks = np.full(n_groups, -np.inf)  # every group has a member, so none stays -inf
    np.maximum.at(peaks, ids, rho_m)
    centroids = np.stack(
        [
            np.bincount(ids, weights=c)
            for c in np.unravel_index(flat, rho.shape)
        ],
        axis=1,
    ) / sizes[:, None]

    is_halo = (peaks > t_halo) & (sizes >= min_cells)
    order = np.argsort(-masses[is_halo], kind="stable")
    return HaloCatalog(
        masses=masses[is_halo][order],
        positions=centroids[is_halo][order],
        sizes=sizes[is_halo][order],
        peak_densities=peaks[is_halo][order],
        t_boundary=float(t_boundary),
        t_halo=float(t_halo),
        n_candidate_cells=int(flat.size),
    )
