"""Ablation — dual (cuSZ) vs classic (CPU-SZ) quantization ordering.

Both orderings must satisfy the bound and produce the uniform error
distribution (§3.2 claims they coincide).  The dual order is the
production compressor; the classic order is the labelled reference in
:mod:`repro.compression.reference`.  Both are built through the
registry, whose ``engine`` spec key is the one place that tells them
apart.
"""

from __future__ import annotations

import numpy as np

from repro.compression.api import CompressorSpec, decompress_any, resolve_compressor
from repro.util.tables import format_table


def test_ablation_quantization_order(snapshot, benchmark):
    data = snapshot["temperature"].astype(np.float64)[:16, :16, :16]
    eb = 10.0

    def run():
        rows = []
        for engine in ("dual", "classic"):
            comp = resolve_compressor(CompressorSpec.sz(engine=engine))
            block = comp.compress(data, eb)
            recon = decompress_any(block)
            err = (recon - data) / eb
            rows.append(
                [
                    engine,
                    block.ratio,
                    float(np.abs(recon - data).max()),
                    float(err.mean()),
                    float(err.std()),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["engine", "ratio", "max err", "err mean/eb", "err std/eb"],
            rows,
            title="Ablation: quantization ordering (uniform std = 0.577)",
        )
    )
    for row in rows:
        assert row[2] <= eb + 1e-9
        assert abs(row[4] - 0.577) < 0.12, "both orderings give uniform-like error"
