"""Storage budgeting for a multi-snapshot campaign (the paper's §1 math).

The paper motivates compression with campaign-level storage: a 4096³ run
dumps ~2.8 TB per snapshot and hundreds of snapshots.  This example runs
a miniature campaign — all six fields, several redshifts — through
:class:`repro.InSituController` in its batch configuration (models
frozen after one calibration, budgets re-derived per snapshot) and
extrapolates the measured ratios to the paper's production scale.

Run:  python examples/campaign_storage_budget.py
"""

from __future__ import annotations

from repro import BlockDecomposition, FieldSpec, InSituController, NyxSimulator
from repro.sim.nyx import FIELD_NAMES
from repro.util.tables import format_table

REDSHIFTS = [2.0, 1.0, 0.5]


def main() -> None:
    sim = NyxSimulator(shape=(48, 48, 48), box_size=48.0, seed=21)
    dec = BlockDecomposition((48, 48, 48), blocks=3)

    specs = {
        "baryon_density": FieldSpec(
            spectrum_tolerance=0.02, correlated_fraction=0.5, halo_aware=True
        ),
        "dark_matter_density": FieldSpec(
            spectrum_tolerance=0.02, correlated_fraction=0.5, halo_aware=True
        ),
        "temperature": FieldSpec(correlated_fraction=0.5),
        "velocity_x": FieldSpec(correlated_fraction=0.05),
        "velocity_y": FieldSpec(correlated_fraction=0.05),
        "velocity_z": FieldSpec(correlated_fraction=0.05),
    }
    campaign = InSituController(
        dec, field_specs=specs, recalibrate="never", warm_start=False,
        max_partitions=12,
    )

    print("calibrating rate models on the first snapshot...")
    campaign.prime(sim.snapshot(z=REDSHIFTS[0]))

    for z in REDSHIFTS:
        campaign.process_snapshot(sim.snapshot(z=z))

    report = campaign.report
    rows = [[name, report.field_ratio(name)] for name in FIELD_NAMES]
    print()
    print(format_table(["field", "campaign ratio"], rows, title="Per-field ratios"))
    print(
        format_table(
            ["redshift", "snapshot ratio"],
            [[z, report.snapshot_ratio(z)] for z in REDSHIFTS],
            title="Per-snapshot ratios",
        )
    )

    overall = report.overall_ratio
    print(f"\noverall campaign ratio: {overall:.1f}x")

    # The paper's storage arithmetic, re-run with our measured ratio:
    snap_tb = 2.8  # TB per 4096^3 snapshot
    runs, snaps = 5, 200
    raw_pb = snap_tb * runs * snaps / 1000.0
    print(
        f"paper's scenario ({runs} runs x {snaps} snapshots x {snap_tb} TB): "
        f"{raw_pb:.1f} PB raw -> {raw_pb / overall * 1000:.0f} TB compressed "
        f"at this campaign's ratio"
    )


if __name__ == "__main__":
    main()
