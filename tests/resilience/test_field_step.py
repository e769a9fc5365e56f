"""The controller's field step under a degradation.

A field whose retries run out is quarantined onto the fallback,
recalibrated there, and compressed again in the same step.  That step
builds one :class:`~repro.foresight.evaluator.FieldReference` and hands
it to every consumer, and on the cold path (``warm_start=False``) the
degraded field decides at the bound its degradation recalibration
recorded — which replay re-derives.
"""

from __future__ import annotations

from repro import telemetry
from repro.resilience import FaultPlan, RetryPolicy
from repro.stream import InSituController, replay_ledger

#: Two attempts, no waiting: two armed crashes exhaust one field step.
TWO_TRIES = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


def _degrading_plan() -> FaultPlan:
    """baryon_density's compression in snapshot 1 fails on both attempts."""
    return FaultPlan(seed=2).arm(
        "backend.compress", kind="crash", at=(1, 2), field="baryon_density"
    )


def test_one_reference_per_field_step(chaos_stream, chaos_dec):
    """Every field step casts its field to float64 once, the degraded
    quality-checked one included (3 snapshots x 2 fields = 6)."""
    ctl = InSituController(
        chaos_dec,
        check_quality=True,
        retry=TWO_TRIES,
        fallback_compressor="sz:codec=zlib",
    )
    with telemetry.armed(), _degrading_plan().activate():
        report = ctl.run(chaos_stream(3))
        counters = {m["name"]: m["value"] for m in telemetry.get_registry().snapshot()}
    assert report.n_degradations == 1
    assert counters["foresight.cache.f64.misses"] == 6


def test_cold_degradation_decides_at_the_recalibrated_bound(
    chaos_stream, chaos_dec, chaos_sim
):
    ctl = InSituController(
        chaos_dec,
        recalibrate="never",
        warm_start=False,
        max_partitions=4,
        retry=TWO_TRIES,
        fallback_compressor="sz:codec=zlib",
    )
    ctl.prime(chaos_sim.snapshot(z=5.0))
    with _degrading_plan().activate():
        report = ctl.run(chaos_stream(3))
    assert report.n_degradations == 1

    (degradation,) = ctl.ledger.select("degradation")
    snapshot, field = degradation.data["snapshot"], degradation.data["field"]
    (recal,) = [
        e for e in ctl.ledger.select("recalibration")
        if e.data["reason"] == "degradation"
    ]
    (decision,) = [
        e for e in ctl.ledger.select("decision")
        if (e.data["snapshot"], e.data["field"]) == (snapshot, field)
    ]
    assert recal.data["snapshot"] == snapshot
    assert degradation.seq < recal.seq < decision.seq
    assert decision.data["eb_base"] == recal.data["eb_base"]

    decisions = replay_ledger(ctl.ledger, verify=True)
    assert len(decisions) == 3 * 2
