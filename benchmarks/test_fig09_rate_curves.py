"""Figure 9 — per-partition bit-rate vs error-bound curves.

Paper: 16 sampled partitions; on log-log axes each partition's curve is
a power law (Eq. 15), with a shared slope and per-partition offsets
spanning the compressibility spread the optimizer exploits.
"""

from __future__ import annotations

import numpy as np

from repro.models.rate_model import fit_power_law
from repro.util.tables import format_table


def test_fig09_per_partition_power_laws(snapshot, decomposition, compressor, benchmark):
    data = snapshot["baryon_density"]
    views = decomposition.partition_views(data)
    sample = views[:: max(1, len(views) // 16)][:16]
    probe_ebs = np.array([0.1, 0.2, 0.4, 0.8, 1.6])

    def run():
        rows = []
        for i, v in enumerate(sample):
            rates = np.array([compressor.compress(v, float(e)).bit_rate for e in probe_ebs])
            coef, c, r2 = fit_power_law(probe_ebs, rates)
            rows.append([i, *rates.tolist(), coef, c, r2])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    headers = ["part"] + [f"b(eb={e:g})" for e in probe_ebs] + ["C_m", "exponent c", "R^2"]
    print(format_table(headers, rows, title="Fig. 9 reproduction: rate curves"))

    exps = np.array([r[-2] for r in rows])
    r2s = np.array([r[-1] for r in rows])
    informative = r2s > 0.8
    assert informative.sum() >= len(rows) // 2, "most partitions follow a power law"
    # Shared exponent: informative slopes cluster (std well below |median|).
    med = np.median(exps[informative])
    assert med < -0.2
    assert np.std(exps[informative]) < abs(med)
    # Compressibility spread across partitions: the fitted Eq. 15
    # offsets C_m (measured 2.60x).  The rate ratio at any one probe
    # bound is not a stand-in for it: it runs from 1.6x at eb=0.1 to
    # 3.0x at eb=1.6 on these same curves.
    offsets = np.array([r[-3] for r in rows])
    assert offsets.max() / max(offsets.min(), 1e-9) > 2.0
