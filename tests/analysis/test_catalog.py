"""Halo catalog matching and quality metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.catalog import compare_catalogs, match_halos
from repro.analysis.halos import HaloCatalog
from repro.foresight.quality import QualityCriteria


def _catalog(masses, positions) -> HaloCatalog:
    masses = np.asarray(masses, dtype=np.float64)
    order = np.argsort(-masses)
    return HaloCatalog(
        masses=masses[order],
        positions=np.asarray(positions, dtype=np.float64)[order],
        sizes=np.maximum(masses[order].astype(np.int64) // 10, 1),
        peak_densities=masses[order],
        t_boundary=10.0,
        t_halo=20.0,
        n_candidate_cells=int(masses.sum() / 10),
    )


class TestMatching:
    def test_perfect_match(self):
        cat = _catalog([100, 50], [[1, 1, 1], [5, 5, 5]])
        oi, ri = match_halos(cat, cat)
        assert len(oi) == 2
        assert np.array_equal(oi, ri)

    def test_displaced_within_tolerance(self):
        a = _catalog([100], [[1, 1, 1]])
        b = _catalog([95], [[1.5, 1, 1]])
        oi, ri = match_halos(a, b, max_distance=2.0)
        assert len(oi) == 1

    def test_displaced_beyond_tolerance(self):
        a = _catalog([100], [[1, 1, 1]])
        b = _catalog([95], [[9, 9, 9]])
        oi, _ = match_halos(a, b, max_distance=2.0)
        assert len(oi) == 0

    def test_each_reconstructed_used_once(self):
        a = _catalog([100, 90], [[1, 1, 1], [1.5, 1, 1]])
        b = _catalog([95], [[1.2, 1, 1]])
        oi, ri = match_halos(a, b)
        assert len(ri) == len(set(ri.tolist())) == 1

    def test_empty_catalogs(self):
        a = _catalog([100], [[1, 1, 1]])
        empty = _catalog([], np.empty((0, 3)))
        assert match_halos(a, empty)[0].size == 0
        assert match_halos(empty, a)[0].size == 0


def greedy_reference(original, reconstructed, max_distance=2.0):
    """The all-pairs greedy loop ``match_halos`` replaced, frozen: each
    original halo, in catalog order, takes the untaken reconstructed halo
    at the least ``d2`` (lowest index on ties) if ``d2 <= max_distance**2``."""
    if original.n_halos == 0 or reconstructed.n_halos == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rec_pos = reconstructed.positions
    taken = np.zeros(reconstructed.n_halos, dtype=bool)
    oi, ri = [], []
    for i in range(original.n_halos):
        d2 = ((rec_pos - original.positions[i]) ** 2).sum(axis=1)
        d2[taken] = np.inf
        j = int(np.argmin(d2))
        if d2[j] <= max_distance**2:
            taken[j] = True
            oi.append(i)
            ri.append(j)
    return np.array(oi, dtype=np.int64), np.array(ri, dtype=np.int64)


def _at(positions) -> HaloCatalog:
    """A catalog in the given order (matching reads only positions)."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(positions)
    return HaloCatalog(
        masses=np.arange(n, 0, -1, dtype=np.float64),
        positions=positions,
        sizes=np.ones(n, dtype=np.int64),
        peak_densities=np.ones(n),
        t_boundary=1.0,
        t_halo=2.0,
        n_candidate_cells=n,
    )


# Half-cell lattice coordinates give duplicate positions, equal-distance
# ties and pairs at exactly max_distance; free floats give the rest.
_coord = st.one_of(st.integers(0, 12).map(lambda v: v / 2), st.floats(0.0, 6.0))
_positions = st.lists(st.tuples(_coord, _coord, _coord), max_size=30)
_distance = st.one_of(
    st.sampled_from([0.5, 1.0, math.sqrt(2.0), 1.5, 2.0, 3.0]), st.floats(0.01, 8.0)
)


class TestAgainstGreedyReference:
    @settings(max_examples=300, deadline=None)
    @given(orig=_positions, rec=_positions, max_distance=_distance)
    def test_same_index_arrays(self, orig, rec, max_distance):
        a, b = _at(orig), _at(rec)
        got, want = match_halos(a, b, max_distance), greedy_reference(a, b, max_distance)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    def test_duplicates_and_ties_go_to_the_lowest_index(self):
        a = _at([[2, 2, 2], [2, 2, 2]])
        b = _at([[3, 2, 2], [1, 2, 2], [2, 3, 2], [2, 2, 2], [2, 2, 2]])
        oi, ri = match_halos(a, b)
        assert oi.tolist() == [0, 1] and ri.tolist() == [3, 4]
        oi, ri = match_halos(a, _at([[3, 2, 2], [1, 2, 2], [2, 3, 2]]))
        assert ri.tolist() == [0, 1]

    def test_pair_at_exactly_max_distance_matches(self):
        a = _at([[0, 0, 0], [5, 5, 5]])
        b = _at([[2, 0, 0], [6, 6, 5]])
        # d2 = 4 for the first pair, 2 for the second.
        assert match_halos(a, b, 2.0)[1].tolist() == [0, 1]
        assert match_halos(a, b, 1.999999)[1].tolist() == [1]
        assert match_halos(a, b, math.sqrt(2.0))[1].tolist() == [1]
        assert match_halos(a, b, 1.414213)[0].size == 0


class TestMatchDistanceValidated:
    @pytest.mark.parametrize("bad", [-2.0, 0.0, float("nan"), float("inf")])
    def test_match_halos_rejects(self, bad):
        cat = _at([[1, 1, 1]])
        with pytest.raises(ValueError, match="max_distance"):
            match_halos(cat, cat, max_distance=bad)

    @pytest.mark.parametrize("bad", [-2.0, 0.0, float("nan"), float("inf")])
    def test_criteria_reject(self, bad):
        with pytest.raises(ValueError, match="halo_match_distance"):
            QualityCriteria(halo_match_distance=bad)


class TestComparison:
    def test_identical_catalogs(self):
        cat = _catalog([100, 50, 25], [[1, 1, 1], [5, 5, 5], [9, 9, 9]])
        cmp = compare_catalogs(cat, cat)
        assert cmp.n_matched == 3
        assert cmp.mass_rmse == 0.0
        assert cmp.count_change == 0
        assert cmp.max_position_error == 0.0

    def test_mass_rmse(self):
        a = _catalog([100.0], [[1, 1, 1]])
        b = _catalog([102.0], [[1, 1, 1]])
        cmp = compare_catalogs(a, b)
        assert cmp.mass_rmse == pytest.approx(0.02)

    def test_count_change(self):
        a = _catalog([100, 50], [[1, 1, 1], [5, 5, 5]])
        b = _catalog([100], [[1, 1, 1]])
        cmp = compare_catalogs(a, b)
        assert cmp.count_change == -1

    def test_mass_rmse_above_restricts(self):
        a = _catalog([1000.0, 10.0], [[1, 1, 1], [5, 5, 5]])
        b = _catalog([1000.0, 15.0], [[1, 1, 1], [5, 5, 5]])
        cmp = compare_catalogs(a, b)
        assert cmp.mass_rmse > 0.1  # small halo ruins the global number
        assert cmp.mass_rmse_above(100.0) == pytest.approx(0.0)

    def test_no_matches_gives_nan(self):
        a = _catalog([100], [[0, 0, 0]])
        b = _catalog([100], [[9, 9, 9]])
        cmp = compare_catalogs(a, b)
        assert np.isnan(cmp.mass_rmse)
