"""Connected-component labeling vs a brute-force search and the scipy oracle."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from repro.analysis.labeling import _min_roots, candidate_components, label_components


def _bfs_labels(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, int]:
    """Reference labeling: flood each unlabelled candidate over its face
    neighbours, visiting cells in flat order (so labels number the
    components by first appearance)."""
    labels = np.zeros(mask.shape, dtype=np.int64)
    n = 0
    for start in zip(*np.nonzero(mask)):
        if labels[start]:
            continue
        n += 1
        labels[start] = n
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            for axis in range(3):
                for step in (-1, 1):
                    nbr = list(cell)
                    nbr[axis] += step
                    if periodic:
                        nbr[axis] %= mask.shape[axis]
                    elif not 0 <= nbr[axis] < mask.shape[axis]:
                        continue
                    nbr = tuple(nbr)
                    if mask[nbr] and not labels[nbr]:
                        labels[nbr] = n
                        queue.append(nbr)
    return labels, n


def _snake(n: int) -> np.ndarray:
    """One chain through an ``n``-cubed grid: z-lines at every even
    ``(x, y)``, visited in boustrophedon order and joined end to end at
    alternate z faces, with no cell touching the chain anywhere else."""
    mask = np.zeros((n, n, n), dtype=bool)
    evens = range(0, n, 2)
    lines = [(x, y) for x in evens for y in (evens if x % 4 == 0 else evens[::-1])]
    for t, (x, y) in enumerate(lines):
        mask[x, y, :] = True
        if t + 1 < len(lines):
            nx, ny = lines[t + 1]
            mask[(x + nx) // 2, (y + ny) // 2, n - 1 if t % 2 == 0 else 0] = True
    return mask


class TestLabeling:
    def test_empty_mask(self):
        labels, n = label_components(np.zeros((4, 4, 4), dtype=bool))
        assert n == 0 and labels.sum() == 0

    def test_single_blob(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[2:4, 2:4, 2:4] = True
        labels, n = label_components(mask)
        assert n == 1
        assert (labels[mask] == 1).all()
        assert (labels[~mask] == 0).all()

    def test_two_separate_blobs(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[0, 0, 0] = True
        mask[5, 5, 5] = True
        _, n = label_components(mask)
        assert n == 2

    def test_diagonal_not_connected(self):
        """6-connectivity: face neighbours only."""
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = True
        mask[1, 1, 0] = True
        _, n = label_components(mask)
        assert n == 2

    def test_periodic_wrapping(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[0, 2, 2] = True
        mask[5, 2, 2] = True
        _, n_open = label_components(mask, periodic=False)
        _, n_periodic = label_components(mask, periodic=True)
        assert n_open == 2
        assert n_periodic == 1

    def test_matches_scipy_on_random_masks(self):
        rng = np.random.default_rng(0)
        for density in (0.05, 0.2, 0.5):
            mask = rng.random((20, 20, 20)) < density
            _, n_ours = label_components(mask)
            _, n_scipy = ndimage.label(mask)
            assert n_ours == n_scipy

    def test_label_partition_matches_scipy(self):
        """Same partition of cells into components (label ids may differ)."""
        rng = np.random.default_rng(1)
        mask = rng.random((15, 15, 15)) < 0.3
        ours, n = label_components(mask)
        scipys, sn = ndimage.label(mask)
        assert n == sn
        # Build the mapping ours-label -> scipy-label; it must be a bijection.
        pairs = set(zip(ours[mask].tolist(), scipys[mask].tolist()))
        assert len(pairs) == n

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            label_components(np.zeros((4, 4), dtype=bool))

    @given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_component_count_property(self, seed, density):
        rng = np.random.default_rng(seed)
        mask = rng.random((10, 10, 10)) < density
        _, n_ours = label_components(mask)
        _, n_scipy = ndimage.label(mask)
        assert n_ours == n_scipy


class TestAgainstBreadthFirstSearch:
    @given(
        arrays(
            np.bool_,
            st.tuples(*[st.integers(1, 8)] * 3),
            elements=st.booleans(),
            fill=st.nothing(),  # draw every cell: dense masks, not one value
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_labels_equal_bfs(self, mask, periodic):
        """Labels and count equal a brute-force search, with and without
        wrap-around, on non-cubic masks with axes of length 1 and 2."""
        ours, n = label_components(mask, periodic=periodic)
        ref, n_ref = _bfs_labels(mask, periodic)
        assert n == n_ref
        assert np.array_equal(ours, ref)

    def test_snake_spanning_the_grid_is_one_component(self):
        """A chain of ~8 400 cells, each joined only to the next: the
        hooking must converge along the whole chain."""
        mask = _snake(32)
        assert mask.sum() == 256 * 32 + 255
        labels, n = label_components(mask)
        assert n == 1
        assert (labels[mask] == 1).all()
        assert ndimage.label(mask)[1] == 1
        # Cut the chain in its middle: two components, numbered by first cell.
        flat = np.flatnonzero(mask)
        cut = mask.copy()
        cut.ravel()[flat[len(flat) // 2]] = False
        assert label_components(cut)[1] == ndimage.label(cut)[1] == 2


class TestCandidateComponents:
    def test_ids_follow_each_components_smallest_member(self):
        """Component ids count up in order of each component's first
        (smallest) flat index; wrapped, the last run joins the first."""
        mask = np.zeros((1, 1, 7), dtype=bool)
        mask[0, 0, [0, 2, 3, 5, 6]] = True
        flat, ids, n = candidate_components(mask)
        assert flat.tolist() == [0, 2, 3, 5, 6]
        assert ids.tolist() == [0, 1, 1, 2, 2]
        assert n == 3
        _, wrapped, n_wrapped = candidate_components(mask, periodic=True)
        assert wrapped.tolist() == [0, 1, 1, 0, 0]
        assert n_wrapped == 2

    def test_no_edges_each_candidate_its_own_component(self):
        """A checkerboard has no face-adjacent candidate pair."""
        x, y, z = np.indices((4, 6, 5))
        mask = (x + y + z) % 2 == 0
        flat, ids, n = candidate_components(mask)
        assert n == flat.size == mask.sum()
        assert ids.tolist() == list(range(n))


def _edge_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Smallest member of each element's component, by graph search."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges.tolist():
        adjacent[a].append(b)
        adjacent[b].append(a)
    root = np.full(n, -1)
    for start in range(n):
        if root[start] >= 0:
            continue
        root[start] = start
        stack = [start]
        while stack:
            for nbr in adjacent[stack.pop()]:
                if root[nbr] < 0:
                    root[nbr] = start
                    stack.append(nbr)
    return root


class TestMinRoots:
    def test_roots_are_min_members(self):
        roots = _min_roots(6, np.array([5, 3]), np.array([1, 2]))
        assert roots.tolist() == [0, 1, 2, 2, 4, 1]

    def test_long_chain_converges(self):
        a = np.arange(999)
        assert (_min_roots(1000, a[::-1] + 1, a[::-1]) == 0).all()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, seed, n):
        """Arbitrary edge sets: each element's root is the smallest member
        of its component, as a graph search finds it."""
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        roots = _min_roots(n, edges[:, 0], edges[:, 1])
        assert np.array_equal(roots, _edge_components(n, edges))
