"""Summaries computed from exported trace files.

``repro.cli trace-report`` renders three tables from any trace a
``--telemetry`` run wrote:

- **per-stage**: total seconds and call counts per compression stage
  (the ``sz.*`` spans: map/quantize/lorenzo/residual/entropy/
  side_channels) — the cuSZ-style breakdown that makes kernel work
  tractable.
- **per-field**: wall time per simulation field, from the controller's
  per-field spans.
- **overhead**: the paper's §4.3 headline ratio — adaptive machinery
  (``features`` + ``optimize``) over ``compress`` — computed directly
  from span durations, no bench-side plumbing.
- **R-Q probes**: the ``rq.probe`` spans of the closed-form
  ratio-quality engine — how much probing replaced trial compressions,
  and what it cost.

All functions take plain span records (``Span.to_record()`` shape) as
returned by :func:`repro.telemetry.export.load_spans`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from typing import Any

from repro.util.tables import format_table

__all__ = [
    "field_summary",
    "overhead_summary",
    "probe_summary",
    "render_trace_report",
    "stage_summary",
]

#: Span name of the ratio-quality quantization probe.
PROBE_SPAN = "rq.probe"

#: Span-name prefix of the SZ compression-stage spans.
STAGE_PREFIX = "sz."

#: Phase spans the §4.3 ratio is computed from: adaptive machinery over
#: the compression it steers.
OVERHEAD_PHASES = ("features", "optimize")
BASE_PHASE = "compress"


def _totals(
    spans: Iterable[dict[str, Any]], key: Callable[[dict[str, Any]], str | None]
) -> dict[str, dict[str, float | int]]:
    """``{key(rec): {"seconds", "count"}}``: span durations totalled per
    name ``key`` gives, in span order; spans it maps to ``None`` are
    skipped.  Every summary below is one call."""
    out: dict[str, dict[str, float | int]] = {}
    for rec in spans:
        name = key(rec)
        if name is None:
            continue
        stats = out.setdefault(name, {"seconds": 0.0, "count": 0})
        stats["seconds"] += rec["end"] - rec["start"]
        stats["count"] += 1
    return out


def stage_summary(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float | int]]:
    """``{stage: {"seconds", "count"}}`` for the ``sz.*`` stage spans."""
    return _totals(
        spans,
        lambda rec: rec["name"][len(STAGE_PREFIX):]
        if rec["name"].startswith(STAGE_PREFIX)
        else None,
    )


def field_summary(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float | int]]:
    """``{field: {"seconds", "count"}}`` from spans carrying a ``field``
    attribute (the controller's per-field spans)."""

    def field(rec: dict[str, Any]) -> str | None:
        name = rec.get("attrs", {}).get("field")
        return None if name is None or rec["name"] != "stream.field" else str(name)

    return _totals(spans, field)


def overhead_summary(spans: Iterable[dict[str, Any]]) -> dict[str, float]:
    """§4.3 accounting: phase totals plus ``overhead_ratio``.

    ``overhead_ratio`` is ``(features + optimize) / compress``; 0.0 when
    no compress spans were recorded (empty/foreign trace).  This is the
    one place the ratio is computed.
    """
    phases = (*OVERHEAD_PHASES, BASE_PHASE)
    totals = {
        name: stats["seconds"]
        for name, stats in _totals(
            spans, lambda rec: rec["name"] if rec["name"] in phases else None
        ).items()
    }
    base = totals.get(BASE_PHASE, 0.0)
    overhead = math.fsum(totals.get(p, 0.0) for p in OVERHEAD_PHASES)
    return {
        **{p: totals.get(p, 0.0) for p in phases},
        "overhead_ratio": overhead / base if base > 0 else 0.0,
    }


def probe_summary(spans: Iterable[dict[str, Any]]) -> dict[str, float | int]:
    """Totals for the ratio-quality ``rq.probe`` spans.

    ``{"seconds", "count", "blocks"}`` — ``blocks`` sums the spans'
    ``blocks`` attribute (partition views probed), quantifying how many
    trial compressions the model replaced.  Empty dict when the trace
    has no probes.
    """
    probes = [rec for rec in spans if rec["name"] == PROBE_SPAN]
    if not probes:
        return {}
    return {
        **_totals(probes, lambda rec: PROBE_SPAN)[PROBE_SPAN],
        "blocks": sum(int(rec.get("attrs", {}).get("blocks", 0)) for rec in probes),
    }


def render_trace_report(spans: Iterable[dict[str, Any]]) -> str:
    """The full text report ``repro.cli trace-report`` prints."""
    records = list(spans)
    sections: list[str] = []

    stages = stage_summary(records)
    if stages:
        total = sum(s["seconds"] for s in stages.values())
        rows = [
            (stage, stats["seconds"], stats["count"],
             stats["seconds"] / total if total > 0 else 0.0)
            for stage, stats in sorted(
                stages.items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        sections.append(
            format_table(
                ("stage", "seconds", "count", "share"),
                rows,
                title="Compression stages (sz.*)",
            )
        )

    fields = field_summary(records)
    if fields:
        rows = [
            (field, stats["seconds"], stats["count"])
            for field, stats in sorted(
                fields.items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        sections.append(
            format_table(
                ("field", "seconds", "count"), rows, title="Per-field wall time"
            )
        )

    probes = probe_summary(records)
    if probes:
        sections.append(
            format_table(
                ("probes", "blocks", "seconds"),
                [(probes["count"], probes["blocks"], probes["seconds"])],
                title="Ratio-quality probes (rq.probe: codec-free, "
                "replaces trial compressions)",
            )
        )

    overhead = overhead_summary(records)
    rows = [(name, overhead[name]) for name in (*OVERHEAD_PHASES, BASE_PHASE)]
    rows.append(("overhead_ratio", overhead["overhead_ratio"]))
    sections.append(
        format_table(
            ("phase", "seconds"),
            rows,
            title="Adaptive overhead (paper §4.3: (features+optimize)/compress)",
        )
    )

    if not records:
        sections.insert(0, "trace contains no spans")
    return "\n\n".join(sections)
