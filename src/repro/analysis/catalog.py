"""Halo catalog comparison — the paper's three halo-quality metrics.

§2.1 lists the quantities to preserve through lossy compression:

1. halo positions,
2. the number of halos detected,
3. per-halo mass change (the paper's preferred control quantity, §3.4),

with mid/large halos weighted over small ones.  Halos are matched by
nearest centroid within a tolerance; RMSE of matched mass ratios is the
quantity the paper keeps within ``1 +/- 0.01`` (§4.2).

Matching is greedy in descending original mass, non-periodic Euclidean.
KD-trees (``scipy.spatial.cKDTree``) find the pairs within
``max_distance``; the greedy pass then reads only those, instead of a
distance from each original halo to every reconstructed one.  There is
no size rule: for the ~2 200-halo catalogs of a 128^3 sweep a call takes
6 ms against ~210 ms for the all-pairs loop (2-vCPU x86-64 VM), and
``scipy.spatial`` is imported on the first call (~0.4 s, once per
process).  Its index arrays are identical to the all-pairs loop's
(property-tested in ``tests/analysis/test_catalog.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.halos import HaloCatalog
from repro.util.validation import check_positive

__all__ = ["CatalogComparison", "compare_catalogs", "match_halos"]


@dataclass
class CatalogComparison:
    """Result of matching a reconstructed catalog against the original."""

    n_original: int
    n_reconstructed: int
    n_matched: int
    mass_ratios: np.ndarray  # matched reconstructed/original masses
    position_errors: np.ndarray  # matched centroid distances (cells)
    matched_original_masses: np.ndarray

    @property
    def count_change(self) -> int:
        """Detected-halo count difference (reconstructed - original)."""
        return self.n_reconstructed - self.n_original

    @property
    def mass_rmse(self) -> float:
        """RMSE of the matched mass ratio around 1 (paper's §4.2 metric)."""
        if len(self.mass_ratios) == 0:
            return float("nan")
        return float(np.sqrt(np.mean((self.mass_ratios - 1.0) ** 2)))

    @property
    def max_position_error(self) -> float:
        if len(self.position_errors) == 0:
            return float("nan")
        return float(self.position_errors.max())

    def mass_rmse_above(self, min_mass: float) -> float:
        """Mass RMSE restricted to halos above ``min_mass`` (mid/large halos)."""
        keep = self.matched_original_masses >= min_mass
        if not keep.any():
            return float("nan")
        return float(np.sqrt(np.mean((self.mass_ratios[keep] - 1.0) ** 2)))


def match_halos(
    original: HaloCatalog,
    reconstructed: HaloCatalog,
    max_distance: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy nearest-centroid matching (descending original mass).

    Returns index arrays ``(orig_idx, rec_idx)`` of matched pairs.  Each
    reconstructed halo is used at most once; each original halo takes
    the nearest untaken one within ``max_distance`` (ties to the lowest
    index).  ``max_distance`` must be positive and finite.
    """
    limit = check_positive(max_distance, "max_distance") ** 2
    if original.n_halos == 0 or reconstructed.n_halos == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    from scipy.spatial import cKDTree

    orig_pos, rec_pos = original.positions, reconstructed.positions
    # Every pair the tree finds within a hair over max_distance (the slack
    # absorbs its own rounding), kept where the d2 of the all-pairs loop
    # accepts it: the nearest untaken halo is always among these.
    pairs = cKDTree(orig_pos).sparse_distance_matrix(
        cKDTree(rec_pos), max_distance * (1 + 1e-9), output_type="ndarray"
    )
    i, j = pairs["i"], pairs["j"]
    d2 = ((rec_pos[j] - orig_pos[i]) ** 2).sum(axis=1)
    keep = d2 <= limit
    i, j, d2 = i[keep], j[keep], d2[keep]
    # Catalogs are mass-sorted: match big halos first, each to its nearest
    # untaken candidate, ties to the lowest index.
    order = np.lexsort((j, d2, i))
    taken: set[int] = set()
    oi: list[int] = []
    ri: list[int] = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if (oi and oi[-1] == a) or b in taken:
            continue
        taken.add(b)
        oi.append(a)
        ri.append(b)
    return np.array(oi, dtype=np.int64), np.array(ri, dtype=np.int64)


def compare_catalogs(
    original: HaloCatalog,
    reconstructed: HaloCatalog,
    max_distance: float = 2.0,
) -> CatalogComparison:
    """Match catalogs and compute the paper's halo-quality metrics."""
    oi, ri = match_halos(original, reconstructed, max_distance)
    if len(oi):
        mass_ratios = reconstructed.masses[ri] / original.masses[oi]
        # An axis norm is an elementwise square-sum-root, not a BLAS call.
        pos_err = np.linalg.norm(  # repro-lint: disable=RL014
            reconstructed.positions[ri] - original.positions[oi], axis=1
        )
        matched_mass = original.masses[oi]
    else:
        mass_ratios = np.empty(0)
        pos_err = np.empty(0)
        matched_mass = np.empty(0)
    return CatalogComparison(
        n_original=original.n_halos,
        n_reconstructed=reconstructed.n_halos,
        n_matched=len(oi),
        mass_ratios=mass_ratios,
        position_errors=pos_err,
        matched_original_masses=matched_mass,
    )
