"""Figure 18 — adaptive improvement vs partition size.

Paper: improvement over the traditional method grows as partitions
shrink (27.1% at partition dim 512 -> 56.0% at 64): big partitions
average out the quality-ratio differences the optimizer exploits.  We
sweep the block count at fixed grid size and report the redistribution
gain and bound spread per partition size.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import StaticBaseline
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.calibration import calibrate_rate_model
from repro.parallel.decomposition import BlockDecomposition
from repro.util.tables import format_table


def test_fig18_partition_size_sweep(snapshot, benchmark):
    field = "baryon_density"
    data = snapshot[field]
    eb_avg = 0.3

    def run():
        rows = []
        for blocks in (1, 2, 4):
            dec = BlockDecomposition(snapshot.shape, blocks=blocks)
            cal = calibrate_rate_model(
                dec.partition_views(data), eb_scale=eb_avg, max_partitions=24, seed=0
            )
            pipe = AdaptiveCompressionPipeline(cal.rate_model)
            adaptive = pipe.run(data, dec, eb_avg=eb_avg)
            static = StaticBaseline().run(data, dec, eb_avg)
            imp = 100.0 * (adaptive.overall_ratio / static.overall_ratio - 1.0)
            rows.append(
                [
                    dec.partition_shape[0],
                    dec.n_partitions,
                    static.overall_ratio,
                    adaptive.overall_ratio,
                    imp,
                    float(adaptive.ebs.max() / adaptive.ebs.min()),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "partition dim",
                "partitions",
                "static ratio",
                "adaptive ratio",
                "improvement %",
                "eb spread",
            ],
            rows,
            title="Fig. 18 reproduction: redistribution gain vs partition size (eb_avg fixed)",
        )
    )
    # One partition: adaptive degenerates to static (improvement ~0).
    assert abs(rows[0][4]) < 1.0
    # Finer partitions expose more heterogeneity: the optimizer's bound
    # spread must grow monotonically with partition count (the mechanism
    # behind the paper's 27.1% -> 56.0% trend; at this reduced scale the
    # realized gain itself is small).
    spreads = [r[5] for r in rows]
    assert all(spreads[i] < spreads[i + 1] for i in range(len(spreads) - 1))
    assert rows[-1][4] >= rows[0][4] - 1.0
