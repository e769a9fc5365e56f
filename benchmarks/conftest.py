"""Shared state for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures (one
file per table or figure, see "Verifying" in the README).  Grids are
scaled from the paper's 512³-2048³ down to 64³-128³ (laptop scale) with
the same partition structure; the claims being reproduced are *shapes*
(who wins, by what factor, where crossovers fall), not absolute numbers
— each bench prints its table and asserts the shape.

The snapshot, decomposition and calibrated rate models are session-
scoped: synthesized once, reused by every bench.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.sz import SZCompressor
from repro.models.calibration import calibrate_rate_model
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator

#: Default experiment scale: 64^3 grid, 64 partitions of 16^3 (the paper
#: uses 512^3 with 512 partitions of 64^3 — same partition-count order).
SHAPE = (64, 64, 64)
BLOCKS = 4
SEED = 42
SIGMA = 2.5
REDSHIFT = 0.5

#: The paper's quality thresholds (§2.1), with the spectrum tolerance for
#: density-derived fields relaxed to 0.02 to account for the much smaller
#: box (fewer k<10 modes of relatively lower power).
SPECTRUM_TOL = {"default": 0.01, "baryon_density": 0.02, "dark_matter_density": 0.02}
HALO_RMSE_TOL = 0.01
MIN_HALO_CELLS = 27  # "mid/large" halos per the paper's stated preference

#: §3.5-revision parameter (signal-correlated quantization error) per
#: field family, calibrated offline against the fig05 bench: lognormal
#: density/temperature fields correlate strongly; the smoother Gaussian
#: velocity fields much less.
CORRELATED_FRACTION = {
    "default": 0.5,
    "velocity_x": 0.05,
    "velocity_y": 0.05,
    "velocity_z": 0.05,
}

#: The traditional protocol's safety margin: the paper's §4.2 notes that
#: "to guarantee the unpredictable post-hoc analysis error within
#: acceptable for multiple snapshots, simulation users usually choose a
#: relatively lower error-bound ... compared to the optimized solution".
TRADITIONAL_SAFETY = 2.0


@pytest.fixture(scope="session")
def simulator() -> NyxSimulator:
    return NyxSimulator(shape=SHAPE, box_size=float(SHAPE[0]), seed=SEED, sigma_delta0=SIGMA)


@pytest.fixture(scope="session")
def snapshot(simulator):
    return simulator.snapshot(z=REDSHIFT)


@pytest.fixture(scope="session")
def decomposition(snapshot) -> BlockDecomposition:
    return BlockDecomposition(snapshot.shape, blocks=BLOCKS)


@pytest.fixture(scope="session")
def compressor() -> SZCompressor:
    return SZCompressor()


@pytest.fixture(scope="session")
def rate_models(snapshot, decomposition):
    """Calibrated rate model per field (offline step, §3.5)."""
    models = {}
    for name, data in snapshot.fields.items():
        scale = _default_eb(name, data)
        models[name] = calibrate_rate_model(
            decomposition.partition_views(data), eb_scale=scale, max_partitions=24, seed=0
        )
    return models


def _default_eb(name: str, data: np.ndarray) -> float:
    """A mid-curve probe bound per field (value-range scaled)."""
    vrange = float(np.ptp(np.asarray(data, dtype=np.float64)))
    return max(vrange * 3e-3, 1e-12)


def spectrum_tolerance(field: str) -> float:
    return SPECTRUM_TOL.get(field, SPECTRUM_TOL["default"])


def correlated_fraction(field: str) -> float:
    return CORRELATED_FRACTION.get(field, CORRELATED_FRACTION["default"])
