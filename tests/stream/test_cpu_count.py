"""The ledger does not depend on how many CPUs the controller may use.

A snapshot's field steps run side by side on the fan-out pool and their
records are appended in field order, so a governed run writes the same
bytes on one CPU (every step in the calling thread, one after another)
as on two or three.  The run walks the whole field step: selection
between ``sz`` and ``zfp_like``, a halo-aware field, drift
recalibration, the quality check, the budget governor and a fault plan
that degrades one field.  A run torn mid-ledger and resumed must match
across CPU counts too.
"""

from __future__ import annotations

import threading

import pytest

from repro.compression import sz
from repro.core.config import FieldSpec
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience import FaultPlan, RetryPolicy, TornWrite
from repro.sim.nyx import NyxSimulator
from repro.stream import DriftConfig, InSituController, SimulatorStream, replay_ledger
from repro.util import fanout

FIELDS = ("baryon_density", "temperature", "velocity_x")
REDSHIFTS = [5.0, 4.0, 3.0, 2.4, 1.8, 1.2]
SETTINGS = dict(
    field_specs={"baryon_density": FieldSpec(halo_aware=True)},
    retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
    fallback_compressor="sz:codec=zlib",
    check_quality=True,
    retain_results=False,
)


@pytest.fixture(scope="module")
def sim() -> NyxSimulator:
    return NyxSimulator((16, 16, 16), box_size=16.0, seed=11, sigma_delta0=2.5)


def _stream(sim: NyxSimulator) -> SimulatorStream:
    return SimulatorStream(sim, REDSHIFTS, fields=FIELDS)


def _degrading_plan() -> FaultPlan:
    """temperature's compression in snapshot 1 fails on both attempts."""
    return FaultPlan(seed=2).arm(
        "backend.compress", kind="crash", at=(1, 2), field="temperature"
    )


def _pin_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(sz, "usable_cpus", lambda: cpus)


def _governed(path, sim, plan: FaultPlan) -> InSituController:
    ctl = InSituController(
        BlockDecomposition((16, 16, 16), blocks=2),
        candidates=["sz", "zfp_like:rate=8"],
        byte_budget=90_000,
        drift=DriftConfig(z_threshold=1.5, window=3, rate_sigma=0.03),
        ledger=path,
        **SETTINGS,
    )
    threads = set()
    real = ctl._field_step

    def watched(*args):
        threads.add(threading.current_thread().name)
        return real(*args)

    ctl._field_step = watched
    ctl.threads = threads
    with plan.activate():
        ctl.run(_stream(sim))
    ctl.close()
    return ctl


def test_ledger_bytes_do_not_depend_on_the_cpu_count(sim, tmp_path, monkeypatch):
    ledgers = {}
    for cpus in (1, 2, 3):
        _pin_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus-{cpus}.jsonl"
        plan = _degrading_plan()
        ctl = _governed(path, sim, plan)
        ledgers[cpus] = path.read_bytes()

        report = ctl.report
        assert plan.fired("backend.compress", "temperature") == 2
        assert report.degraded_fields == ["temperature"]
        assert report.n_retries == 1
        assert "drift" in [r[2] for r in report.recalibrations]
        assert {o.field for o in report.outcomes if o.quality_deviation is not None} == set(
            FIELDS
        )
        if cpus == 1:
            assert ctl.threads == {threading.current_thread().name}
    assert b'"halo":{' in ledgers[1]
    assert b'"family":"zfp_like"' in ledgers[1]
    assert ledgers[1] == ledgers[2] == ledgers[3]


def test_a_resumed_run_does_not_depend_on_the_cpu_count(sim, tmp_path, monkeypatch):
    _pin_cpus(monkeypatch, 1)
    clean = tmp_path / "clean.jsonl"
    _governed(clean, sim, _degrading_plan())
    baseline = replay_ledger(clean)

    resumed = {}
    for cpus in (1, 2, 3):
        _pin_cpus(monkeypatch, cpus)
        path = tmp_path / f"torn-{cpus}.jsonl"
        # Tear an append of snapshot 3, after the degradation.
        plan = _degrading_plan().arm("ledger.append", kind="torn", at=30, fraction=0.5)
        with pytest.raises(TornWrite):
            _governed(path, sim, plan)
        ctl = InSituController.resume(path, **SETTINGS)
        assert 0 < ctl.report.n_snapshots < len(REDSHIFTS)
        assert ctl.state.quarantined == {"temperature"}
        ctl.run(_stream(sim))
        ctl.close()
        resumed[cpus] = path.read_bytes()
        assert replay_ledger(path) == baseline
    assert resumed[1] == resumed[2] == resumed[3]


def test_more_workers_than_cores_with_fast_thread_switches(sim, tmp_path, monkeypatch):
    """Six fields on six workers, switching threads every 10 µs: a lost
    update to anything the steps share (the spare reconstruction
    buffers, the fault counters) would change a byte."""
    import sys

    fields = ("baryon_density", "dark_matter_density", "temperature",
              "velocity_x", "velocity_y", "velocity_z")
    ledgers = {}
    for cpus in (1, 6):
        _pin_cpus(monkeypatch, cpus)
        path = tmp_path / f"six-{cpus}.jsonl"
        ctl = InSituController(
            BlockDecomposition((16, 16, 16), blocks=2), ledger=path, **SETTINGS
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _degrading_plan().activate():
                ctl.run(SimulatorStream(sim, REDSHIFTS[:3], fields=fields))
        finally:
            sys.setswitchinterval(interval)
        ctl.close()
        assert ctl.report.degraded_fields == ["temperature"]
        ledgers[cpus] = path.read_bytes()
    assert ledgers[1] == ledgers[6]
