"""trace-report summaries: stage/field aggregation and the paper's
§4.3 overhead ratio computed from span durations."""

from __future__ import annotations

import pytest

from repro.telemetry.report import (
    field_summary,
    overhead_summary,
    probe_summary,
    render_trace_report,
    stage_summary,
)


def _span(name, start, end, **attrs):
    return {
        "span_id": 0,
        "parent_id": None,
        "name": name,
        "start": start,
        "end": end,
        "attrs": attrs,
        "track": "main",
    }


class TestStageSummary:
    def test_aggregates_sz_spans_only(self):
        spans = [
            _span("sz.quantize", 0.0, 0.2),
            _span("sz.quantize", 1.0, 1.1),
            _span("sz.entropy", 0.2, 0.5),
            _span("compress", 0.0, 2.0),  # not a stage span
        ]
        stages = stage_summary(spans)
        assert stages["quantize"] == {
            "seconds": pytest.approx(0.3),
            "count": 2,
        }
        assert stages["entropy"]["count"] == 1
        assert "compress" not in stages

    def test_empty_trace_has_no_stages(self):
        assert stage_summary([]) == {}

    def test_stages_in_first_seen_order(self):
        spans = [
            _span("sz.map", 0.0, 0.1),
            _span("sz.entropy", 0.1, 0.9),
            _span("sz.map", 1.0, 1.1),
        ]
        assert list(stage_summary(spans)) == ["map", "entropy"]


class TestFieldSummary:
    def test_keyed_by_field_attr(self):
        spans = [
            _span("stream.field", 0.0, 1.0, field="temperature"),
            _span("stream.field", 1.0, 1.5, field="temperature"),
            _span("stream.field", 2.0, 2.2, field="baryon_density"),
            _span("stream.snapshot", 0.0, 3.0, snapshot=0),  # no field attr
        ]
        fields = field_summary(spans)
        assert fields["temperature"] == {
            "seconds": pytest.approx(1.5),
            "count": 2,
        }
        assert set(fields) == {"temperature", "baryon_density"}

    def test_field_attr_on_other_spans_is_not_a_field_row(self):
        """Only the controller's ``stream.field`` spans are per-field wall
        time: a nested span naming the field would count it twice."""
        spans = [
            _span("stream.field", 0.0, 1.0, field="temperature"),
            _span("compress", 0.2, 0.9, field="temperature"),
        ]
        assert field_summary(spans) == {
            "temperature": {"seconds": pytest.approx(1.0), "count": 1}
        }


class TestOverheadSummary:
    def test_ratio_from_span_durations(self):
        spans = [
            _span("features", 0.0, 0.01),
            _span("optimize", 0.01, 0.015),
            _span("compress", 0.015, 1.015),
        ]
        overhead = overhead_summary(spans)
        assert overhead["compress"] == pytest.approx(1.0)
        assert overhead["overhead_ratio"] == pytest.approx(0.015)

    def test_zero_when_no_compress_spans(self):
        assert overhead_summary([_span("features", 0, 1)])["overhead_ratio"] == 0.0

    def test_phase_totals_sum_every_span(self):
        """Every run's phases count: two snapshots' spans total per phase,
        and a phase with no spans reads 0.0."""
        spans = [
            _span("features", 0.0, 0.1),
            _span("compress", 0.1, 0.6),
            _span("features", 1.0, 1.1),
            _span("compress", 1.1, 1.6),
        ]
        assert overhead_summary(spans) == {
            "features": pytest.approx(0.2),
            "optimize": 0.0,
            "compress": pytest.approx(1.0),
            "overhead_ratio": pytest.approx(0.2),
        }

    def test_only_phase_spans_count(self):
        spans = [
            _span("backend.snapshot", 0.0, 2.0),
            _span("sz.entropy", 0.0, 1.5),
            _span("stream.field", 0.0, 2.0, field="temperature"),
            _span("features", 0.0, 0.25),
            _span("compress", 0.25, 1.25),
        ]
        overhead = overhead_summary(spans)
        assert (overhead["features"], overhead["compress"]) == (0.25, 1.0)
        assert overhead["overhead_ratio"] == 0.25


class TestProbeSummary:
    def test_empty_without_probes(self):
        assert probe_summary([_span("compress", 0.0, 1.0)]) == {}

    def test_totals_and_blocks(self):
        spans = [
            _span("rq.probe", 0.0, 0.5, blocks=8),
            _span("rq.probe", 1.0, 1.25, blocks=4),
            _span("compress", 0.0, 2.0),
        ]
        assert probe_summary(spans) == {
            "seconds": pytest.approx(0.75),
            "count": 2,
            "blocks": 12,
        }

    def test_a_probe_without_blocks_counts_none(self):
        spans = [_span("rq.probe", 0.0, 0.5), _span("rq.probe", 1.0, 1.5, blocks=3)]
        assert probe_summary(spans)["blocks"] == 3


class TestRenderTraceReport:
    def test_all_sections_render(self):
        spans = [
            _span("sz.quantize", 0.0, 0.1),
            _span("stream.field", 0.0, 1.0, field="temperature"),
            _span("features", 0.0, 0.02),
            _span("optimize", 0.02, 0.03),
            _span("compress", 0.03, 1.0),
        ]
        text = render_trace_report(spans)
        assert "Compression stages (sz.*)" in text
        assert "Per-field wall time" in text
        assert "§4.3" in text
        assert "overhead_ratio" in text
        assert "temperature" in text

    def test_probe_section_renders_only_with_probes(self):
        title = "Ratio-quality probes"
        assert title not in render_trace_report([_span("compress", 0.0, 1.0)])
        text = render_trace_report([_span("rq.probe", 0.0, 0.5, blocks=8)])
        assert title in text

    def test_empty_trace(self):
        text = render_trace_report([])
        assert text.startswith("trace contains no spans")
        # The overhead table still renders (all zeros).
        assert "overhead_ratio" in text
