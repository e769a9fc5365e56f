"""What the ledger writer emits today, pinned to the byte.

The frozen fixtures (``test_ledger_compat.py``) pin how *old* ledgers
replay; these pin what the controller *writes* now.  Each run is small
(16³, two blocks per axis) but walks the controller's whole field step:
candidate selection, halo-aware budgets, drift recalibration, the
quality check, the budget governor, a retried-then-degraded field, and
the batch path (``recalibrate="never"`` + ``warm_start=False``).  A
refactor of that step must leave the bytes, and so every decision and
every record, exactly where they were.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import FieldSpec
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience import FaultPlan, RetryPolicy
from repro.sim.nyx import NyxSimulator
from repro.stream import DriftConfig, InSituController, SimulatorStream, replay_ledger

FIELDS = ("baryon_density", "temperature")
REDSHIFTS = [5.0, 4.0, 3.0, 2.4, 1.8, 1.2]
HALO_SPECS = {"baryon_density": FieldSpec(halo_aware=True)}


@pytest.fixture(scope="module")
def sim() -> NyxSimulator:
    return NyxSimulator((16, 16, 16), box_size=16.0, seed=11, sigma_delta0=2.5)


@pytest.fixture(scope="module")
def dec() -> BlockDecomposition:
    return BlockDecomposition((16, 16, 16), blocks=2)


def _digest(path) -> tuple[int, str]:
    blob = path.read_bytes()
    return len(blob), hashlib.sha256(blob).hexdigest()


def test_governed_run_bytes(sim, dec, tmp_path):
    """Selection, drift, quality, governor and one degradation."""
    path = tmp_path / "governed.jsonl"
    ctl = InSituController(
        dec,
        field_specs=HALO_SPECS,
        candidates=["sz", "zfp_like:rate=8"],
        check_quality=True,
        byte_budget=60_000,
        drift=DriftConfig(z_threshold=1.5, window=3, rate_sigma=0.03),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        fallback_compressor="sz:codec=zlib",
        ledger=path,
        retain_results=False,
    )
    # baryon_density's compression in snapshot 1 fails on both attempts:
    # retries exhausted.
    plan = FaultPlan(seed=2).arm(
        "backend.compress", kind="crash", at=(1, 2), field="baryon_density"
    )
    with plan.activate():
        report = ctl.run(SimulatorStream(sim, REDSHIFTS, fields=FIELDS))
    ctl.close()

    assert (report.n_recalibrations, report.n_degradations) == (3, 1)
    # The degradation record quotes the injected fault's message, which
    # names the field and its own invocation count (faults are addressed
    # per field); every other line is the one the serial loop wrote.
    # The selections reject zfp_like from its capabilities, unmeasured.
    assert _digest(path) == (
        18_304,
        "4c7a430f8574bb548abd44813f5af2222d0a672cf9539b49ab75937cdadcd0fe",
    )
    assert len(replay_ledger(path)) == len(REDSHIFTS) * len(FIELDS)


def test_batch_run_bytes(sim, dec, tmp_path):
    """Calibrate once, then re-invert the budget from every snapshot."""
    path = tmp_path / "batch.jsonl"
    ctl = InSituController(
        dec,
        field_specs=HALO_SPECS,
        recalibrate="never",
        warm_start=False,
        max_partitions=4,
        check_quality=True,
        ledger=path,
    )
    ctl.prime(sim.snapshot(z=5.0))
    for z in (4.0, 3.0):
        ctl.process_snapshot(sim.snapshot(z=z))
    ctl.finish()
    ctl.close()

    assert _digest(path) == (
        14_224,
        "c7a7b04540c135a98deeb7aed124bd38291e1d966f4020bca73e67eec63944eb",
    )
    assert len(replay_ledger(path)) == 12
