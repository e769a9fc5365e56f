"""From-scratch connected-component labeling for sparse 3-D masks.

The grid halo finder needs connected components of the boolean mask
``density > t_boundary`` under 6-connectivity.  Halo candidates are
sparse (a small fraction of cells), so instead of a dense two-pass scan
one pass works on the candidate list alone, indexed by candidate:

1. the flat indices of the candidate cells (``flatnonzero``, ascending),
2. for each of the three positive axis directions, the candidate
   neighbours via a vectorized ``searchsorted`` membership test,
3. iterated min-root hooking over those edges (:func:`_min_roots`),
   which leaves every candidate pointing at its component's smallest
   member, so ``np.unique`` numbers the components by first appearance.

:func:`candidate_components` returns that per-candidate result, which is
what :func:`~repro.analysis.halos.find_halos` reduces; only
:func:`label_components` scatters it into a full-grid label array.
Everything is vectorized: the hooking converges in O(log n) array
rounds, never a per-edge Python loop.  Equality with a brute-force
breadth-first search is property-tested.
"""

from __future__ import annotations

import numpy as np

__all__ = ["candidate_components", "label_components"]


def _min_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of ``n`` elements' component root once every ``a[i]``–``b[i]``
    edge joins: the component's smallest member.

    Iterated min-root hooking: fully compress the forest by pointer
    doubling (O(log depth) gathers, never a per-element chase, so
    chain-shaped edge sets stay loglinear), attach every edge's larger
    root under its smaller (``np.minimum.at`` arbitrates edges hooking
    the same root), and repeat on the surviving edges until all
    endpoints agree.  The distinct roots along any merge chain at least
    halve per round, so O(log n) rounds suffice.
    """
    parent = np.arange(n)
    while True:
        grand = parent[parent]
        if not (grand == parent).all():
            parent = grand
            continue
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.any():
            return parent
        a = np.minimum(ra[live], rb[live])
        b = np.maximum(ra[live], rb[live])
        np.minimum.at(parent, b, a)


def candidate_components(
    mask: np.ndarray, periodic: bool = False
) -> tuple[np.ndarray, np.ndarray, int]:
    """6-connected components of a 3-D mask, one entry per candidate.

    Parameters
    ----------
    mask:
        3-D array; its nonzero cells are the candidates.
    periodic:
        If True, components wrap around the box boundaries (cosmology
        boxes are periodic).

    Returns
    -------
    flat, ids, n_components:
        ``flat`` holds the candidates' flat (C-order) indices, ascending;
        ``ids[i]`` is candidate ``i``'s component, ``0..n-1`` in order of
        each component's first flat index.
    """
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise ValueError(f"mask must be 3-D, got shape {mask.shape}")
    flat = np.flatnonzero(mask)
    m = flat.size
    _, ny, nz = mask.shape
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for c, dim, stride in zip(
        np.unravel_index(flat, mask.shape), mask.shape, (ny * nz, nz, 1)
    ):
        # Flat index of each candidate's +1 neighbour along this axis.
        nbr = flat + stride
        wraps = c == dim - 1
        if periodic:
            nbr[wraps] -= dim * stride
            src = np.arange(m)
        else:
            src = np.flatnonzero(~wraps)
            nbr = nbr[src]
        # Membership test: which neighbours are candidates themselves?
        pos = np.minimum(np.searchsorted(flat, nbr), m - 1)
        hits = flat[pos] == nbr
        srcs.append(src[hits])
        dsts.append(pos[hits])
    roots = _min_roots(m, np.concatenate(srcs), np.concatenate(dsts))
    # Roots are smallest members, so sorted roots are first appearances.
    roots, ids = np.unique(roots, return_inverse=True)
    return flat, ids, int(roots.size)


def label_components(mask: np.ndarray, periodic: bool = False) -> tuple[np.ndarray, int]:
    """Label 6-connected components of a 3-D boolean mask.

    Parameters
    ----------
    mask:
        3-D boolean array.
    periodic:
        If True, components wrap around the box boundaries.

    Returns
    -------
    labels, n_components:
        ``labels`` has the mask's shape: 0 for background, 1..n for
        components (ordering follows the first flat index of each
        component).
    """
    flat, ids, n = candidate_components(mask, periodic=periodic)
    labels = np.zeros(np.shape(mask), dtype=np.int64)
    labels.ravel()[flat] = ids + 1
    return labels, n
