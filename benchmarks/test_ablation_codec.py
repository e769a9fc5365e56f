"""Ablation — the compression stack's two codec axes.

1. **Entropy stage** (within the SZ family): Huffman vs zlib vs raw on
   real cosmology data (the raw backend shows the Lorenzo+quantization
   stage alone caps at ~2x for fp32).
2. **Compressor family** (across the registry): per field, every
   registered candidate is scored exactly as
   :func:`repro.core.selection.select_compressor` scores it — the
   §2.2 SZ-over-ZFP argument as a measured selection verdict, plus the
   achieved ratio / bitrate / max error of each family at the field's
   admissible bound.

Each family-ablation run appends a record to ``BENCH_codec.json``
(repo root / CWD); CI runs it in smoke mode (subset of fields) and
uploads the artifact next to the other bench trajectories.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.compression.api import CompressorSpec, resolve_compressor
from repro.compression.sz import SZCompressor, decompress
from repro.core.config import FieldSpec
from repro.core.selection import select_compressor
from repro.models.calibration import RateModelBank
from repro.util.tables import format_table

from benchmarks.conftest import correlated_fraction, spectrum_tolerance

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
TRAJECTORY = Path("BENCH_codec.json")

#: The candidate slate the family ablation scores per field.
FAMILIES = (
    CompressorSpec.sz(),
    CompressorSpec.sz(codec="huffman"),
    CompressorSpec.zfp_like(rate=8.0),
    CompressorSpec.make("sz_adaptive"),
)

SMOKE_FIELDS = ("baryon_density", "temperature")


def test_ablation_entropy_codec(snapshot, benchmark):
    data = snapshot["baryon_density"]
    eb = 0.3

    def run():
        rows = []
        for codec in ("raw", "zlib", "huffman"):
            comp = SZCompressor(codec=codec)
            block = comp.compress(data, eb)
            recon = decompress(block)
            rows.append(
                [
                    codec,
                    block.ratio,
                    block.bit_rate,
                    float(np.abs(recon - data.astype(np.float64)).max()),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["codec", "ratio", "bit rate", "max err"],
            rows,
            title=f"Ablation: entropy stage on baryon density (eb={eb})",
        )
    )
    by_name = {r[0]: r for r in rows}
    assert by_name["zlib"][1] > by_name["raw"][1]
    assert by_name["huffman"][1] > by_name["raw"][1]
    for r in rows:
        assert r[3] <= eb + 1e-9


def test_ablation_compressor_family(snapshot, decomposition, benchmark):
    fields = (
        SMOKE_FIELDS if SMOKE else tuple(snapshot.fields)
    )
    bank = RateModelBank(max_partitions=8 if SMOKE else 16)

    def run():
        per_field: dict[str, dict] = {}
        for name in fields:
            data = snapshot[name]
            field_spec = FieldSpec(
                spectrum_tolerance=spectrum_tolerance(name),
                correlated_fraction=correlated_fraction(name),
            )
            selection = select_compressor(
                data,
                decomposition,
                candidates=list(FAMILIES),
                field_spec=field_spec,
                field=name,
                bank=bank,
            )
            families: dict[str, dict] = {}
            for spec in FAMILIES:
                comp = resolve_compressor(spec)
                block = comp.compress(data, selection.eb_avg)
                recon = comp.decompress(block)
                max_err = float(np.abs(recon - data.astype(np.float64)).max())
                # Verdicts are recorded in candidate order.
                verdict = selection.verdicts[FAMILIES.index(spec)]
                families[spec.label] = {
                    "ratio": float(block.ratio),
                    "bit_rate": float(block.bit_rate),
                    "max_abs_error": max_err,
                    "error_bounded": comp.capabilities.error_bounded,
                    "selected": verdict.spec == selection.chosen,
                    "verdict": verdict.reason,
                    "eb_violation": verdict.eb_violation,
                }
            per_field[name] = {
                "eb_avg": selection.eb_avg,
                "chosen": selection.chosen.label,
                "families": families,
            }
        return per_field

    per_field = benchmark.pedantic(run, rounds=1, iterations=1)

    record = {
        "smoke": SMOKE,
        "grid": list(snapshot.shape),
        "candidates": [spec.label for spec in FAMILIES],
        "fields": per_field,
    }
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")

    rows = []
    for name, entry in per_field.items():
        for label, fam in entry["families"].items():
            rows.append(
                [
                    name,
                    label,
                    fam["ratio"],
                    fam["bit_rate"],
                    fam["max_abs_error"],
                    "SELECTED" if fam["selected"] else (
                        "ok" if fam["eb_violation"] is None or fam["eb_violation"] <= 1
                        else f"violates eb {fam['eb_violation']:.1f}x"
                    ),
                ]
            )
    print()
    print(
        format_table(
            ["field", "family", "ratio", "bit rate", "max err", "selection"],
            rows,
            title="Ablation: compressor families at each field's admissible bound"
            + (" [smoke]" if SMOKE else ""),
        )
    )

    for name, entry in per_field.items():
        # The §2.2 claim as data: an SZ-family candidate wins everywhere...
        assert entry["chosen"].startswith("sz"), (name, entry["chosen"])
        zfp = entry["families"]["zfp_like(rate=8.0)"]
        # ...the fixed-rate comparator overshoots the bound, quantified...
        assert not zfp["selected"]
        assert zfp["eb_violation"] is not None and zfp["eb_violation"] > 1.0
        assert zfp["max_abs_error"] > entry["eb_avg"]
        # ...and every error-bounded family honours the bound exactly.
        for label, fam in entry["families"].items():
            if fam["error_bounded"]:
                assert fam["max_abs_error"] <= entry["eb_avg"] + 1e-9, (name, label)
