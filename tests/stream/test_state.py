"""The reducer contract: live state == fold of the ledger.

The controller never mutates its decision state by hand — it appends an
event and folds it with :func:`repro.stream.state.apply`.  Folding the
finished run's events into an *empty* :class:`RunState` must therefore
land on exactly the state the live controller holds, for every way a
run can go.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.config import FieldSpec
from repro.resilience import FaultPlan, RetryPolicy
from repro.stream import DriftConfig, InSituController, SimulatorStream
from repro.stream.ledger import LedgerError, LedgerEvent
from repro.stream.state import RunConfig, RunState, apply, calibrated_state, rederive

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
    "check-quality": ({"check_quality": True, "drift": TIGHT}, False, None),
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
    for local in ("n_snapshots", "n_retries"):
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
        plan.arm("backend.compress", kind="crash", at=crash_at, field=FIELDS[0])
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
    if scenario in ("candidates-drift", "check-quality", "degradation"):
        assert report.n_recalibrations > 0
        assert any(o.drift_signal is not None for o in report.outcomes)
    # The deviation is measured and recorded; the fold carries it.
    deviations = [o.quality_deviation for o in folded.report.outcomes]
    assert deviations == [o.quality_deviation for o in report.outcomes]
    assert all((d is not None) is (scenario == "check-quality") for d in deviations)
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


@pytest.mark.parametrize("margin", [None, 1.0])
def test_run_config_reads_an_older_drift_record(margin):
    """Older ledgers record the quality channel's margin; ``null`` (the
    channel off) reads as today's detector, a set margin is refused."""
    record = {
        "shape": [16, 16, 16],
        "settings": {},
        "drift": {"z_threshold": 3.0, "quality_margin": margin},
        "recalibrate": "drift",
        "warm_start": True,
        "probe_mode": "exact",
    }
    if margin is None:
        assert RunConfig.from_record(record).drift == DriftConfig(z_threshold=3.0)
    else:
        with pytest.raises(LedgerError, match="quality_margin=1.0"):
            RunConfig.from_record(record)


def _folded(recalibrate: str, field: str) -> RunState:
    """A state folded from hand-written events in which ``temperature``
    is ``uncalibrated``, ``pending`` (calibrated; its last outcome missed
    the predicted rate by a factor 2, which fires a one-point detector
    where one runs) or ``clean`` (calibrated; it hit the prediction)."""
    events = [
        (
            "run_start",
            {
                "shape": [16, 16, 16],
                "settings": {},
                "drift": {"min_points": 1},
                "recalibrate": recalibrate,
                "warm_start": True,
                "probe_mode": "exact",
            },
        )
    ]
    if field != "uncalibrated":
        name = {"field": "temperature", "snapshot": 0}
        events += [
            (
                "calibration",
                {
                    **name,
                    "reason": "initial",
                    "exponent": -0.8,
                    "coef_alpha": 0.0,
                    "coef_beta": 0.3,
                    "feature_floor": 1e-12,
                    "coef_r2": 1.0,
                    "eb_base": 0.5,
                },
            ),
            (
                "decision",
                {**name, "redshift": 1.0, "eb_base": 0.5, "scale": 1.0, "eb_avg": 0.5},
            ),
            (
                "outcome",
                {
                    **name,
                    "raw_bytes": 8,
                    "compressed_bytes": 1,
                    "predicted_bit_rate": 8.0,
                    "achieved_bit_rate": 16.0 if field == "pending" else 8.0,
                    "residual": math.log(2.0) if field == "pending" else 0.0,
                    "quality_deviation": 0.1,
                    # Only a "drift" run's detector runs, so only it can fire.
                    "recalibrate_next": field == "pending" and recalibrate == "drift",
                },
            ),
        ]
    state = RunState()
    for seq, (kind, data) in enumerate(events):
        apply(state, LedgerEvent(seq, kind, data))
    return state


@pytest.mark.parametrize(
    ("recalibrate", "field", "reason"),
    [
        ("drift", "uncalibrated", "initial"),
        ("drift", "pending", "drift"),
        ("drift", "clean", None),
        ("always", "uncalibrated", "initial"),
        ("always", "pending", "forced"),
        ("always", "clean", "forced"),
        ("never", "uncalibrated", KeyError),
        ("never", "pending", None),
        ("never", "clean", None),
    ],
)
def test_calibration_reason(recalibrate, field, reason):
    state = _folded(recalibrate, field)
    if reason is KeyError:
        with pytest.raises(KeyError, match="field 'temperature' was not calibrated"):
            state.calibration_reason("temperature")
    else:
        assert state.calibration_reason("temperature") == reason


@pytest.mark.parametrize("kind", ["calibration", "recalibration"])
def test_calibrated_state_is_what_folding_the_record_sets(kind):
    """The field step decides from ``calibrated_state(record)`` instead of
    reading back the fold its record causes: the two must be one state."""
    state = _folded("drift", "pending")
    record = {
        "field": "temperature",
        "snapshot": 1,
        "reason": "drift",
        "exponent": -0.7,
        "coef_alpha": 0.1,
        "coef_beta": 0.2,
        "feature_floor": 1e-9,
        "coef_r2": 0.9,
        "eb_base": 0.25,
        "halo_params": {"t_boundary": 81.66, "mass_budget": 0.01},
        "spec": {"family": "sz", "params": {"codec": "zlib"}},
    }
    expected = calibrated_state(record)
    assert expected.window == ()
    assert expected.halo_params == (81.66, 0.01)
    assert expected.compressor_spec.to_dict() == record["spec"]
    apply(state, LedgerEvent(4, kind, record))
    assert state.fields["temperature"] == expected
    assert ("temperature" in state.pending) is (kind == "calibration")
