"""The reducer contract: live state == fold of the ledger.

The controller never mutates its decision state by hand — it appends an
event and folds it with :func:`repro.stream.state.apply`.  Folding the
finished run's events into an *empty* :class:`RunState` must therefore
land on exactly the state the live controller holds, for every way a
run can go.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import FieldSpec
from repro.resilience import FaultPlan, RetryPolicy
from repro.stream import DriftConfig, InSituController, SimulatorStream
from repro.stream.ledger import LedgerError, LedgerEvent
from repro.stream.state import RunState, apply, rederive

FIELDS = ("baryon_density", "temperature")
TIGHT = DriftConfig(z_threshold=1.5, window=2, min_points=1, rate_sigma=0.02)

#: name -> (controller kwargs, prime first?, fault plan arming or None)
SCENARIOS = {
    "ungoverned": ({}, False, None),
    "governed-halo": (
        {
            "byte_budget": 60_000,
            "field_specs": {"baryon_density": FieldSpec(halo_aware=True)},
        },
        False,
        None,
    ),
    "candidates-drift": (
        {"candidates": ["sz", "zfp_like:rate=8"], "drift": TIGHT, "byte_budget": 60_000},
        False,
        None,
    ),
    "quality-channel": ({"drift": DriftConfig(quality_margin=1e-9)}, False, None),
    "cold-never-primed": ({"warm_start": False, "recalibrate": "never"}, True, None),
    "always": ({"recalibrate": "always"}, False, None),
    "degradation": (
        {
            "retry": RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            "fallback_compressor": "sz:codec=zlib",
            "drift": TIGHT,
        },
        False,
        (0, 1),
    ),
}


def _ledger_accounting(report) -> dict:
    """The report minus what only the driving process knows."""
    payload = json.loads(report.to_json())
    for local in ("n_snapshots", "n_retries", "timings"):
        del payload[local]
    return payload


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_live_state_equals_fold_of_its_ledger(scenario, stream_sim, stream_dec):
    kwargs, prime, crash_at = SCENARIOS[scenario]
    stream = SimulatorStream(stream_sim, [2.0, 1.0, 0.5, 0.3], fields=FIELDS)
    ctl = InSituController(stream_dec, max_partitions=8, **kwargs)
    if prime:
        ctl.prime(next(iter(stream)))
    plan = FaultPlan(seed=2)
    if crash_at is not None:
        plan.arm("backend.compress", kind="crash", at=crash_at)
    with plan.activate():
        ctl.run(stream)

    folded = RunState()
    for event in ctl.ledger.events:
        apply(folded, event)
    live = ctl.state

    # Rate-model parameters, eb_base, halo params, specs, detector windows.
    assert folded.fields == live.fields
    assert list(folded.fields) == list(live.fields)  # the frozen mean's order
    assert folded.pending == live.pending
    assert folded.quarantined == live.quarantined
    assert folded.selections == live.selections
    assert (folded.governor is None) == (live.governor is None)
    if live.governor is not None:
        assert vars(folded.governor) == vars(live.governor)
    assert folded.config == live.config
    assert folded.sealed == live.sealed == 4
    assert folded.log == live.log == [
        e for e in ctl.ledger.events if e.kind != "resume"
    ]
    assert _ledger_accounting(folded.report) == _ledger_accounting(live.report)

    # The scenario exercised what its name says.
    report = ctl.report
    if scenario == "degradation":
        assert live.quarantined and report.n_degradations == 1
    if scenario in ("candidates-drift", "quality-channel", "degradation"):
        assert report.n_recalibrations > 0
        assert any(o.drift_signal is not None for o in report.outcomes)
    if scenario == "quality-channel":
        assert {o.drift_signal.channel for o in report.outcomes} == {"quality"}
    if scenario == "always":
        assert [r[2] for r in report.recalibrations] == ["forced"] * 6
    if scenario == "cold-never-primed":
        assert len({o.eb_base for o in report.outcomes if o.field == FIELDS[0]}) > 1


def test_events_before_run_start_are_rejected():
    state = RunState()
    apply(state, LedgerEvent(0, "recovery", {"truncated_bytes": 3}))  # harmless
    with pytest.raises(LedgerError, match="before run_start"):
        apply(state, LedgerEvent(1, "governor", {"total_bytes": 1, "n_snapshots": 1}))
    with pytest.raises(LedgerError, match="has no calibration"):
        rederive(state, LedgerEvent(1, "decision", {"field": "temperature"}))
