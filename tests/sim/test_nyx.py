"""Nyx-like snapshot generator: Table 2 properties and redshift evolution."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.sim.cosmology import growth_factor, matter_power_spectrum
from repro.sim.grf import gaussian_random_field
from repro.sim.nyx import FIELD_NAMES, FIELD_RANGES, NyxSimulator


class TestSnapshotStructure:
    def test_all_six_fields(self, snapshot):
        assert sorted(snapshot.fields) == sorted(FIELD_NAMES)

    def test_fields_are_float32(self, snapshot):
        for name in FIELD_NAMES:
            assert snapshot[name].dtype == np.float32

    def test_shape_consistent(self, snapshot):
        shapes = {snapshot[name].shape for name in FIELD_NAMES}
        assert shapes == {(32, 32, 32)}

    def test_unknown_field_raises(self, snapshot):
        with pytest.raises(KeyError, match="unknown field"):
            snapshot["entropy"]

    def test_value_ranges_within_table2(self, snapshot):
        for name in FIELD_NAMES:
            lo, hi = FIELD_RANGES[name]
            arr = snapshot[name]
            assert arr.min() >= lo, name
            assert arr.max() <= hi, name

    def test_densities_positive(self, snapshot):
        assert (snapshot["baryon_density"] > 0).all()
        assert (snapshot["dark_matter_density"] > 0).all()


class TestNormalization:
    def test_density_mean_fixed_to_one(self, simulator):
        """§4.3: density means are fixed by the simulation (no allreduce needed)."""
        for z in (0.0, 2.0):
            snap = simulator.snapshot(z=z)
            assert snap["baryon_density"].mean() == pytest.approx(1.0, rel=1e-3)
            assert snap["dark_matter_density"].mean() == pytest.approx(1.0, rel=1e-3)

    def test_temperature_positive_and_plausible(self, snapshot):
        t = snapshot["temperature"]
        assert t.min() >= 1e2
        assert 1e2 < np.median(t) < 1e6


class TestRedshiftEvolution:
    def test_contrast_grows_as_z_drops(self, simulator):
        early = simulator.snapshot(z=4.0)
        late = simulator.snapshot(z=0.0)
        assert late["baryon_density"].max() > early["baryon_density"].max()
        assert late["baryon_density"].std() > early["baryon_density"].std()

    def test_phases_fixed_structures_coherent(self, simulator):
        """Figure 1 behaviour: the same structures evolve through snapshots."""
        a = np.log(simulator.snapshot(z=2.0)["baryon_density"].astype(np.float64))
        b = np.log(simulator.snapshot(z=1.0)["baryon_density"].astype(np.float64))
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert corr > 0.99

    def test_metadata_records_growth(self, simulator):
        snap = simulator.snapshot(z=1.0)
        assert 0 < snap.meta["growth_factor"] < 1
        assert snap.redshift == 1.0


class TestDeterminismAndValidation:
    def test_same_seed_same_snapshot(self):
        s1 = NyxSimulator(shape=(16, 16, 16), seed=5).snapshot(z=1.0)
        s2 = NyxSimulator(shape=(16, 16, 16), seed=5).snapshot(z=1.0)
        for name in FIELD_NAMES:
            assert np.array_equal(s1[name], s2[name])

    def test_different_seed_differs(self):
        s1 = NyxSimulator(shape=(16, 16, 16), seed=5).snapshot(z=1.0)
        s2 = NyxSimulator(shape=(16, 16, 16), seed=6).snapshot(z=1.0)
        assert not np.allclose(s1["baryon_density"], s2["baryon_density"])

    def test_rejects_tiny_shape(self):
        with pytest.raises(ValueError, match="dims >= 4"):
            NyxSimulator(shape=(2, 2, 2))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            NyxSimulator(shape=(8, 8, 8), gamma=1.0)

    def test_rejects_negative_redshift(self, simulator):
        with pytest.raises(ValueError, match="non-negative"):
            simulator.snapshot(z=-1.0)

    def test_velocity_roughly_isotropic(self, snapshot):
        stds = [snapshot[f"velocity_{a}"].std() for a in "xyz"]
        assert max(stds) / min(stds) < 3.0

    def test_partition_heterogeneity_exists(self, snapshot, decomposition):
        """The premise of the paper: partition means span a wide range."""
        views = decomposition.partition_views(snapshot["baryon_density"])
        means = np.array([v.mean() for v in views])
        assert means.max() / means.min() > 2.0

    def test_velocities_match_direct_meshgrid_solve(self):
        """Each velocity equals the direct linear-theory solve on full
        ``meshgrid`` k-grids, applied to the baryon field that the
        simulator's first draw makes (anisotropic shape to exercise every
        axis)."""
        sim = NyxSimulator(shape=(8, 12, 16), box_size=8.0, seed=3)
        delta_b = gaussian_random_field(
            sim.shape,
            lambda k: matter_power_spectrum(k, z=0.0, cosmo=sim.cosmo),
            seed=3,
            box_size=sim.box_size,
            target_sigma=1.0,
        )
        k_axes = [
            np.fft.fftfreq(n, d=sim.box_size / n) * 2.0 * np.pi for n in sim.shape
        ]
        grids = np.meshgrid(*k_axes, indexing="ij")
        k2 = sum(g**2 for g in grids)
        k2[0, 0, 0] = 1.0
        delta_k = np.fft.fftn(delta_b)
        snap = sim.snapshot(z=0.5, dtype=np.float64)
        for axis, name in enumerate(("velocity_x", "velocity_y", "velocity_z")):
            vk = 1j * grids[axis] / k2 * delta_k
            vk[0, 0, 0] = 0.0
            v = np.fft.ifftn(vk).real
            d = growth_factor(0.5, sim.cosmo)
            expected = v * (sim.velocity_scale * d / max(v.std(), 1e-30))
            assert np.array_equal(snap[name], expected)

    def test_velocity_identical_across_snapshots(self):
        sim = NyxSimulator(shape=(8, 8, 8), seed=4)
        a = sim.snapshot(z=1.0)["velocity_y"]
        b = sim.snapshot(z=1.0)["velocity_y"]
        assert np.array_equal(a, b)


def _digest(snaps) -> str:
    """sha256 over every snapshot's fields (name, dtype, shape, bytes) and meta."""
    h = hashlib.sha256()
    for snap in snaps:
        for name in sorted(snap.fields):
            a = snap.fields[name]
            h.update(f"{name}:{a.dtype.str}:{a.shape}:{a.flags.c_contiguous}".encode())
            h.update(a.tobytes())
        meta = {"z": snap.redshift, "box": snap.box_size, **snap.meta}
        h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


#: ``stream-64``'s redshift schedule.
STREAM_REDSHIFTS = [float(z) for z in np.round(np.geomspace(4.0, 0.2, 12), 3)]

#: (simulator arguments, redshifts, dtype, sha256): taken before the
#: simulator kept contiguous base fields and transformed its velocities
#: once.  The 96x80x64, 64^3 and 128^3 cases are the benchmark's inputs.
SNAPSHOT_PINS = {
    "16": (
        dict(shape=(16, 16, 16), seed=5), [1.0], np.float32,
        "9a651c7a136d97fce2615054011ff21fa42a36d8de800c3cac6948c540dd7d36",
    ),
    "8x12x16": (
        dict(shape=(8, 12, 16), box_size=8.0, seed=3), [0.5], np.float32,
        "fb34cd18bdf5cbb4a2d74305ad56419453119afee3f7fc12ce5c0b8ce20f85a4",
    ),
    "8x12x16-f64": (
        dict(shape=(8, 12, 16), box_size=8.0, seed=3), [0.5], np.float64,
        "b9e982c5d0b176df7eaeaddb38bcb452161e05693f970ff0975fab73410a4d32",
    ),
    "32": (
        dict(shape=(32, 32, 32), box_size=32.0, seed=1234, sigma_delta0=2.5), [0.5], np.float32,
        "32158979d2a5ba604a786817904929ce890fc49fe521c751b8e8287551ddcb39",
    ),
    "96x80x64": (
        dict(shape=(96, 80, 64), box_size=96.0, seed=42), [1.0], np.float32,
        "25cb79bac8bc48f684b60d8470de9d65fa943b9ccb85e772ad705e88df11def2",
    ),
    "64-stream": (
        dict(shape=(64, 64, 64), box_size=64.0, seed=42), STREAM_REDSHIFTS, np.float32,
        "ed269b3aeea1eb34e521975d9deb0c4ddfa75c6a448a85c4d7edf161e3f78b8f",
    ),
    "128": (
        dict(shape=(128, 128, 128), box_size=128.0, seed=42), [0.5], np.float32,
        "6449c020a26e51aabde8856b28766bea70263d6a07b325f87f8f06acc7e2f9e1",
    ),
}


@pytest.mark.parametrize("case", list(SNAPSHOT_PINS))
def test_snapshot_pins(case):
    kwargs, redshifts, dtype, digest = SNAPSHOT_PINS[case]
    sim = NyxSimulator(**kwargs)
    assert _digest([sim.snapshot(z=z, dtype=dtype) for z in redshifts]) == digest


def test_snapshots_do_not_depend_on_call_order():
    """One simulator's snapshots, in reverse and repeated order and in
    float64, equal fresh simulators' snapshots at each redshift."""
    kwargs = dict(shape=(16, 12, 8), box_size=16.0, seed=21)
    schedule = [4.0, 1.5, 0.5, 0.0]
    sim = NyxSimulator(**kwargs)
    for dtype in (np.float32, np.float64):
        for z in [*reversed(schedule), *schedule, schedule[1], schedule[1]]:
            fresh = NyxSimulator(**kwargs).snapshot(z=z, dtype=dtype)
            assert _digest([sim.snapshot(z=z, dtype=dtype)]) == _digest([fresh])


def _traced(fn):
    """``(fn(), peak, held)``: traced bytes above the start, at most and at the end."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already in use")
def test_traced_memory_in_float64_grids():
    """What a 64^3 simulator allocates, in float64 grids of the snapshot
    shape.  It keeps six grids (two densities, the heating factor, three
    velocity patterns); building it peaks at nine, while the second
    velocity component is transformed.  A snapshot adds one float64
    scratch and its outputs.  These are allocation counts, not timings."""
    shape = (64, 64, 64)
    grid = 8 * int(np.prod(shape))
    NyxSimulator(shape=shape, box_size=64.0, seed=1).snapshot(z=0.5)  # warm caches
    sim, peak, held = _traced(lambda: NyxSimulator(shape=shape, box_size=64.0, seed=42))
    assert held / grid < 6.5
    assert peak / grid < 9.5
    _, peak, _ = _traced(lambda: sim.snapshot(z=0.5))
    assert peak / grid < 3.5  # scratch + six float32 fields
    _, peak, _ = _traced(lambda: sim.snapshot(z=0.5, dtype=np.float64))
    assert peak / grid < 6.5  # six float64 fields; the scratch is freed first
