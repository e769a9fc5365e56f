"""Rendering sweep results as tables."""

from __future__ import annotations

from collections.abc import Sequence

from repro.foresight.sweep import SweepRecord
from repro.util.tables import format_table

__all__ = ["records_to_table"]

_COLUMNS = (
    "field",
    "eb",
    "bit_rate",
    "ratio",
    "spectrum_dev",
    "halo_mass_rmse",
    "psnr_db",
    "passed",
)


def _row(r: SweepRecord) -> list[object]:
    if r.quality is None:  # rate-only record
        return [r.field, r.eb, r.bit_rate, r.ratio, float("nan"), float("nan"), float("nan"), "-"]
    return [
        r.field,
        r.eb,
        r.bit_rate,
        r.ratio,
        r.quality.spectrum_worst_deviation,
        r.quality.halo_mass_rmse if r.quality.halo_mass_rmse is not None else float("nan"),
        r.quality.psnr_db,
        r.passed,
    ]


def _columns_and_rows(
    records: Sequence[SweepRecord],
) -> tuple[list[str], list[list[object]]]:
    """Prepend a compressor column when the sweep fanned over specs.

    Single-compressor sweeps (every ``record.spec`` is ``None``) keep
    the historical column set.
    """
    rows = [_row(r) for r in records]
    if any(r.spec is not None for r in records):
        cols = ["compressor", *_COLUMNS]
        rows = [
            [r.spec.label if r.spec is not None else "-", *row]
            for r, row in zip(records, rows)
        ]
        return cols, rows
    return list(_COLUMNS), rows


def records_to_table(records: Sequence[SweepRecord], title: str | None = None) -> str:
    """Aligned plain-text table of sweep records."""
    cols, rows = _columns_and_rows(records)
    return format_table(cols, rows, title=title)

