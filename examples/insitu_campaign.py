"""In situ compression campaign across a simulation run.

Mirrors the paper's deployment: a cosmology simulation dumps snapshots
at decreasing redshift; at every dump each MPI rank extracts its
partition features, exchanges one scalar collective, solves for its own
error bound and compresses.  The script runs the pipeline on the
process backend (the snapshot staged once in shared memory, partitions
compressed in batches across a worker pool) and reports the ratio
trajectory for per-snapshot adaptive optimization vs a
configuration frozen at the first snapshot (the paper's Fig. 16 story).

Run:  python examples/insitu_campaign.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AdaptiveCompressionPipeline,
    BlockDecomposition,
    NyxSimulator,
    calibrate_rate_model,
)
from repro.core.features import extract_features
from repro.core.optimizer import optimize_for_spectrum
from repro.util.tables import format_table

REDSHIFTS = [4.0, 2.0, 1.0, 0.5, 0.2]
FIELD = "baryon_density"
EB_AVG = 0.3


def main() -> None:
    sim = NyxSimulator(shape=(64, 64, 64), box_size=64.0, seed=7)
    dec = BlockDecomposition((64, 64, 64), blocks=4)

    # Offline calibration on the first snapshot.
    first = sim.snapshot(z=REDSHIFTS[0])
    cal = calibrate_rate_model(dec.partition_views(first[FIELD]), eb_scale=EB_AVG, seed=0)

    # A frozen configuration computed once at the first snapshot.
    feats0 = [
        extract_features(v, rank=i)
        for i, v in enumerate(dec.partition_views(first[FIELD]))
    ]
    frozen = optimize_for_spectrum(feats0, cal.rate_model, EB_AVG).ebs

    rows = []
    # The worker pool lives across snapshots; leaving the block closes it.
    with AdaptiveCompressionPipeline(cal.rate_model, backend="process") as pipe:
        for z in REDSHIFTS:
            snap = sim.snapshot(z=z)
            data = snap[FIELD]
            # Workers extract features and compress; this process optimizes.
            adaptive = pipe.run(data, dec, eb_avg=EB_AVG)
            frozen_bytes = sum(
                pipe.compressor.compress(v, float(eb)).nbytes
                for v, eb in zip(dec.partition_views(data), frozen)
            )
            frozen_ratio = 4.0 * data.size / frozen_bytes
            rows.append(
                [
                    z,
                    snap.meta["growth_factor"],
                    adaptive.stats.overall_ratio,
                    frozen_ratio,
                    100.0 * (adaptive.stats.overall_ratio / frozen_ratio - 1.0),
                ]
            )

    print(
        format_table(
            ["redshift", "growth D(z)", "adaptive ratio", "frozen-config ratio", "adaptive gain %"],
            rows,
            title=f"In situ campaign on {FIELD} ({dec.n_partitions} ranks, eb_avg={EB_AVG})",
        )
    )
    print(
        "\nThe frozen configuration coincides with per-snapshot optimization at"
        "\nthe snapshot it was fit on and drifts as structure forms (the paper's"
        "\nFig. 16/17 mechanism); the drift magnitude scales with how much the"
        "\npartition contrast grows between snapshots — small on this 64^3 box,"
        "\nlarge on production 512^3 runs."
    )


if __name__ == "__main__":
    main()
