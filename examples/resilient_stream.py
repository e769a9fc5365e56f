"""Fault-tolerant streaming: injected chaos, retries, crash + resume.

The streaming example (``examples/insitu_stream.py``) shows the happy
path. This one breaks things on purpose and shows the resilience
contract: every fault that is retried, degraded around, or recovered
from leaves the replayed ledger decisions **bitwise identical** to a
run where nothing went wrong.

1. A clean governed 6-dump run establishes the reference ledger.
2. The same stream re-runs under a seeded :class:`FaultPlan` that
   crashes compression twice mid-run; a :class:`RetryPolicy` absorbs
   both faults and the replayed decisions match the reference exactly.
3. A third run is killed by a *torn ledger write* mid-snapshot — the
   on-disk state a power cut leaves. ``InSituController.resume``
   truncates the torn tail, restores models/governor state from the
   valid prefix, re-runs only what is missing, and the final ledger
   again replays identically.
4. A last run exhausts its retry budget on one field and degrades it to
   a conservative fallback compressor instead of dying.

Run:  python examples/resilient_stream.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    BlockDecomposition,
    InSituController,
    NyxSimulator,
    SimulatorStream,
    replay_ledger,
)
from repro.resilience import FaultPlan, RetryPolicy, TornWrite
from repro.util.tables import format_table

SHAPE = (16, 16, 16)
REDSHIFTS = [4.0, 3.0, 2.2, 1.6, 1.0, 0.5]
FIELDS = ("baryon_density", "temperature")
BUDGET = 500_000
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def stream(sim: NyxSimulator) -> SimulatorStream:
    return SimulatorStream(sim, REDSHIFTS, fields=FIELDS)


def main() -> None:
    sim = NyxSimulator(shape=SHAPE, box_size=float(SHAPE[0]), seed=7)
    dec = BlockDecomposition(SHAPE, blocks=2)
    workdir = Path(tempfile.mkdtemp(prefix="repro_resilient_"))
    rows = []

    # 1. Reference: nothing goes wrong. ---------------------------------
    clean_path = workdir / "clean.jsonl"
    clean = InSituController(
        dec, ledger=clean_path, byte_budget=BUDGET, retain_results=False
    )
    clean_report = clean.run(stream(sim))
    reference = replay_ledger(clean_path)
    rows.append(["clean", clean_report.n_snapshots, 0, 0, 0, "reference"])

    # 2. Transient faults, retried away. --------------------------------
    retried_path = workdir / "retried.jsonl"
    # baryon_density's first attempt in snapshots 1 and 3 (its count runs
    # on across snapshots: snapshot 1's retry is invocation 2).
    plan = FaultPlan(seed=3).arm(
        "backend.compress", kind="crash", at=(1, 4), field="baryon_density"
    )
    ctl = InSituController(
        dec, ledger=retried_path, byte_budget=BUDGET, retry=RETRY,
        retain_results=False,
    )
    with plan.activate():
        retried_report = ctl.run(stream(sim))
    assert replay_ledger(retried_path) == reference
    rows.append(
        ["2 injected crashes", retried_report.n_snapshots,
         retried_report.n_retries, 0, 0, "replay == reference"]
    )

    # 3. Killed mid-run by a torn ledger write, then resumed. -----------
    crash_path = workdir / "crashed.jsonl"
    ctl = InSituController(
        dec, ledger=crash_path, byte_budget=BUDGET, retain_results=False
    )
    tear = FaultPlan(seed=1).arm("ledger.append", kind="torn", at=20, fraction=0.6)
    try:
        with tear.activate():
            ctl.run(stream(sim))
    except TornWrite:
        ctl.ledger.close()  # the "process" died mid-append

    resumed = InSituController.resume(crash_path, retain_results=False)
    done_before = resumed.report.n_snapshots
    resumed_report = resumed.run(stream(sim))
    assert replay_ledger(crash_path) == reference
    rows.append(
        [f"torn write, resumed at dump {done_before}",
         resumed_report.n_snapshots, resumed_report.n_retries,
         resumed_report.n_recoveries, 0, "replay == reference"]
    )

    # 4. Retries exhausted: degrade one field, keep streaming. ----------
    degraded_path = workdir / "degraded.jsonl"
    storm = FaultPlan(seed=2).arm(
        "backend.compress", kind="crash", at=(0, 1), field="baryon_density"
    )
    ctl = InSituController(
        dec, ledger=degraded_path, byte_budget=BUDGET,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        fallback_compressor="sz:codec=zlib", retain_results=False,
    )
    with storm.activate():
        degraded_report = ctl.run(stream(sim))
    assert degraded_report.degraded_fields
    assert len(replay_ledger(degraded_path)) == len(reference)
    rows.append(
        ["retry budget exhausted", degraded_report.n_snapshots,
         degraded_report.n_retries, 0, degraded_report.n_degradations,
         f"degraded: {', '.join(degraded_report.degraded_fields)}"]
    )

    print(
        format_table(
            ["scenario", "dumps", "retries", "recoveries", "degradations",
             "outcome"],
            rows,
            title=f"resilient streaming over {len(REDSHIFTS)} dumps "
            f"({len(reference)} reference decisions)",
        )
    )
    print(f"\nledgers kept in {workdir}")


if __name__ == "__main__":
    main()
