"""Ablation — exact allgather optimization vs the paper's local protocol.

§3.6/§4.3: the paper's in situ protocol shares only the global mean via
one allreduce and applies Eq. 16 locally; the exact protocol allgathers
one scalar per rank and renormalizes.  Both must land near the same
configuration — this quantifies the difference.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizerSettings
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.util.tables import format_table


def test_ablation_normalization_protocol(snapshot, decomposition, rate_models, benchmark):
    field = "temperature"
    data = snapshot[field]
    eb_avg = float(np.ptp(np.asarray(data, dtype=np.float64))) * 3e-3

    def run():
        out = {}
        for norm in ("exact", "local"):
            pipe = AdaptiveCompressionPipeline(
                rate_models[field].rate_model,
                settings=OptimizerSettings(normalization=norm),
            )
            res = pipe.run(data, decomposition, eb_avg=eb_avg)
            out[norm] = res
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    exact, local = out["exact"], out["local"]
    corr = float(np.corrcoef(np.log(exact.ebs), np.log(local.ebs))[0, 1])
    print()
    print(
        format_table(
            ["protocol", "mean eb", "ratio", "eb spread"],
            [
                ["exact (allgather)", float(exact.ebs.mean()), exact.stats.overall_ratio, float(exact.ebs.max() / exact.ebs.min())],
                ["local (one allreduce)", float(local.ebs.mean()), local.stats.overall_ratio, float(local.ebs.max() / local.ebs.min())],
            ],
            title=f"Ablation: optimizer normalization protocol (bound correlation {corr:.4f})",
        )
    )
    # The cheap protocol approximates the exact one closely.
    assert corr > 0.99
    assert abs(local.ebs.mean() / eb_avg - 1.0) < 0.25
    assert abs(local.stats.overall_ratio / exact.stats.overall_ratio - 1.0) < 0.1
