"""§4.3 — in situ overhead of the adaptive machinery.

Paper: per-partition mean extraction costs ~1-1.5% of compression time
on CPUs; effective-cell counting adds up to 5% (density field only); the
optimization itself is negligible.  We measure the same ratios on the
rank loop's own phases: the ``features``, ``optimize`` and ``compress``
spans :meth:`~repro.core.pipeline.AdaptiveCompressionPipeline.run`
opens on the path every workload runs, read from an armed tracer.  The density field runs with the halo
constraint the stream controller builds (its ``features`` phase counts
boundary cells too) and once without it; the difference of the two
``features`` phases is the boundary-cell count.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.core.config import FieldSpec
from repro.core.pipeline import AdaptiveCompressionPipeline, SnapshotResult
from repro import telemetry
from repro.core.selection import derive_halo_params
from repro.foresight.evaluator import FieldReference
from repro.stream.state import decision_inputs
from repro.telemetry.report import BASE_PHASE, OVERHEAD_PHASES, overhead_summary
from repro.util.tables import format_table

EB_AVG = 0.3
#: Each phase is the minimum over this many rank-loop runs (standard
#: practice for wall-clock micro-measurements).
REPEATS = 15


def _min_phases(*runs: Callable[[], SnapshotResult]) -> list[dict[str, float]]:
    """Per run, each phase's minimum over ``REPEATS`` calls, each phase
    the total of its spans in the call's own armed trace.  The runs take
    turns, so a slow spell of the machine falls on all of them rather
    than skewing one run's phases against another's."""
    best: list[dict[str, float]] = [{} for _ in runs]
    for _ in range(REPEATS):
        for run, mins in zip(runs, best):
            with telemetry.armed() as tracer:
                run()
            totals = overhead_summary(tracer.export_spans())
            for name in (*OVERHEAD_PHASES, BASE_PHASE):
                mins[name] = min(mins.get(name, math.inf), totals[name])
    return best


def test_sec43_overhead(snapshot, decomposition, rate_models, benchmark):
    data = snapshot["baryon_density"]
    params = derive_halo_params(
        FieldSpec(halo_aware=True, halo_percentile=99.0), FieldReference(data)
    )
    assert params is not None, "the density field must have halos"
    eb_avg, halo = decision_inputs(EB_AVG, 1.0, params)

    pipe = AdaptiveCompressionPipeline(rate_models["baryon_density"].rate_model)

    def run():
        return _min_phases(
            lambda: pipe.run(data, decomposition, eb_avg),
            lambda: pipe.run(data, decomposition, eb_avg, halo=halo),
        )

    means_only, with_halo = benchmark.pedantic(run, rounds=1, iterations=1)
    compress = with_halo["compress"]
    mean_time = means_only["features"]
    boundary_time = with_halo["features"] - means_only["features"]
    optimize_time = with_halo["optimize"]
    total_time = with_halo["features"] + optimize_time
    feature_overhead = mean_time / compress
    total_overhead = total_time / compress
    print()
    print(
        format_table(
            ["phase", "seconds", "% of compression"],
            [
                ["mean extraction", mean_time, 100 * feature_overhead],
                ["boundary-cell count", boundary_time, 100 * boundary_time / compress],
                ["optimization", optimize_time, 100 * optimize_time / compress],
                ["compression", compress, 100.0],
                ["total overhead", total_time, 100 * total_overhead],
            ],
            title="§4.3 reproduction: in situ overhead (paper: ~1% mean, <=5% boundary)",
        )
    )
    # NumPy-vectorized features on laptop-scale data: the claim is that
    # overhead stays a small fraction of compression time.
    assert feature_overhead < 0.15
    assert total_overhead < 0.35
