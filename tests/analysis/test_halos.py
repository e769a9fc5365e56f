"""Grid halo finder on constructed density fields."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.halos import find_halos
from repro.sim.nyx import NyxSimulator


def _field_with_blobs() -> np.ndarray:
    """Two well-separated halos of known mass plus background."""
    rho = np.full((24, 24, 24), 0.1)
    rho[4:7, 4:7, 4:7] = 100.0  # 27 cells, mass 2700
    rho[16:18, 16:18, 16:18] = 50.0  # 8 cells, mass 400
    return rho


class TestFindHalos:
    def test_finds_both_blobs(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert cat.n_halos == 2

    def test_masses_exact(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert cat.masses[0] == pytest.approx(2700.0)
        assert cat.masses[1] == pytest.approx(400.0)

    def test_sorted_by_mass(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert (np.diff(cat.masses) <= 0).all()

    def test_positions_are_centroids(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert np.allclose(cat.positions[0], [5.0, 5.0, 5.0])
        assert np.allclose(cat.positions[1], [16.5, 16.5, 16.5])

    def test_sizes_and_peaks(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert list(cat.sizes) == [27, 8]
        assert cat.peak_densities[0] == pytest.approx(100.0)

    def test_t_halo_filters_peaks(self):
        """A group whose peak stays below t_halo is not a halo."""
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=60.0)
        assert cat.n_halos == 1
        assert cat.masses[0] == pytest.approx(2700.0)

    def test_default_t_halo(self):
        cat = find_halos(_field_with_blobs(), t_boundary=30.0)
        assert cat.t_halo == 60.0

    def test_min_cells(self):
        cat = find_halos(
            _field_with_blobs(), t_boundary=10.0, t_halo=20.0, min_cells=10
        )
        assert cat.n_halos == 1

    def test_cell_volume_scales_mass(self):
        c1 = find_halos(_field_with_blobs(), 10.0, 20.0, cell_volume=1.0)
        c2 = find_halos(_field_with_blobs(), 10.0, 20.0, cell_volume=2.0)
        assert np.allclose(c2.masses, 2.0 * c1.masses)

    def test_candidate_count_recorded(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        assert cat.n_candidate_cells == 27 + 8

    def test_empty_field(self):
        cat = find_halos(np.full((8, 8, 8), 0.1), t_boundary=10.0)
        assert cat.n_halos == 0
        assert cat.masses.size == 0

    def test_select_by_mass(self):
        cat = find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=20.0)
        big = cat.select_by_mass(1000.0)
        assert big.n_halos == 1

    def test_rejects_t_halo_below_boundary(self):
        with pytest.raises(ValueError, match="t_halo"):
            find_halos(_field_with_blobs(), t_boundary=10.0, t_halo=5.0)

    def test_periodic_halo_across_boundary(self):
        rho = np.full((12, 12, 12), 0.1)
        rho[0, 5, 5] = rho[11, 5, 5] = 100.0
        cat_p = find_halos(rho, t_boundary=10.0, t_halo=20.0, periodic=True)
        cat_o = find_halos(rho, t_boundary=10.0, t_halo=20.0, periodic=False)
        assert cat_p.n_halos == 1
        assert cat_o.n_halos == 2

    @pytest.mark.parametrize(
        ("t_halo", "n_halos"), [(-2.0, 0), (-6.0, 1)]
    )
    def test_negative_densities_peak_is_the_densest_member(self, t_halo, n_halos):
        """A group's peak is its densest cell even when every density is
        negative, so it is judged against ``t_halo`` on that value."""
        rho = np.full((4, 4, 4), -20.0)
        rho[1, 2, 3] = -5.0
        cat = find_halos(rho, t_boundary=-10.0, t_halo=t_halo)
        assert cat.n_halos == n_halos
        assert list(cat.peak_densities) == [-5.0] * n_halos

    def test_realistic_snapshot(self, snapshot):
        rho = snapshot["baryon_density"].astype(np.float64)
        tb = float(np.percentile(rho, 99.0))
        cat = find_halos(rho, t_boundary=tb)
        assert cat.n_halos > 0
        assert (cat.masses > 0).all()
        assert (cat.peak_densities > cat.t_halo).all()


#: sha256 over ``find_halos``'s masses, positions, sizes and peak densities
#: (raw bytes, in that order) and the candidate count, on a seed-7 Nyx
#: density, as recorded before the halo finder stopped building a
#: full-grid label array.
CATALOG_PINS = {
    99.5: "2f609e67d16e24f9f2462b6bcefc717ecd07dd53bdb6fc6bd5f1b1929f72c993",
    90.0: "a54e999b34db567261de341d56758bbabf07c002b6c07e83654b62d389d29812",
}


@pytest.mark.parametrize("percentile", sorted(CATALOG_PINS))
def test_catalog_pin(percentile):
    """Catalogs are bit-identical to the recorded ones, on a sparse
    (99.5th percentile) and a dense (90th) candidate set."""
    sim = NyxSimulator(shape=(48, 40, 32), box_size=48.0, seed=7)
    rho = sim.snapshot(z=0.5)["baryon_density"]
    cat = find_halos(rho, float(np.percentile(rho, percentile)))
    digest = hashlib.sha256()
    for arr in (cat.masses, cat.positions, cat.sizes, cat.peak_densities):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(str(cat.n_candidate_cells).encode())
    assert digest.hexdigest() == CATALOG_PINS[percentile]
