"""StreamReport exports: to_json() schema and to_table() rendering.

The JSON report is what ``repro.cli stream --report`` writes and CI
artifact uploads ingest, so its schema is pinned here: the resilience
counters (retries/recoveries/degradations) must round-trip.
Time is not in the report: the run's telemetry spans are its record.
"""

from __future__ import annotations

import json

import pytest

from repro.stream.controller import StreamOutcome, StreamReport


def _outcome(field: str = "temperature", snapshot: int = 0, **kw) -> StreamOutcome:
    defaults = dict(
        field=field,
        redshift=2.0,
        snapshot_index=snapshot,
        eb_base=1e-3,
        scale=1.0,
        eb_avg=1e-3,
        result=None,
        predicted_bit_rate=4.0,
        achieved_bit_rate=4.2,
        raw_bytes=32768,
        compressed_bytes=2048,
        residual=None,
    )
    defaults.update(kw)
    return StreamOutcome(**defaults)


def _report() -> StreamReport:
    return StreamReport(
        outcomes=[
            _outcome("temperature", 0),
            _outcome("baryon_density", 0, compressed_bytes=4096),
            _outcome("temperature", 1),
        ],
        n_snapshots=2,
        n_recalibrations=1,
        recalibrations=[(1, "temperature", "drift")],
        byte_budget=100_000,
        n_retries=3,
        n_recoveries=1,
        n_degradations=1,
        degraded_fields=["baryon_density"],
    )


class TestToJson:
    def test_resilience_counters_round_trip(self):
        doc = json.loads(_report().to_json())
        assert doc["n_retries"] == 3
        assert doc["n_recoveries"] == 1
        assert doc["n_degradations"] == 1
        assert doc["degraded_fields"] == ["baryon_density"]

    def test_totals_and_budget(self):
        doc = json.loads(_report().to_json())
        assert doc["raw_bytes"] == 3 * 32768
        assert doc["compressed_bytes"] == 2048 + 4096 + 2048
        assert doc["overall_ratio"] == pytest.approx((3 * 32768) / 8192)
        assert doc["byte_budget"] == 100_000
        assert doc["budget_utilization"] == pytest.approx(8192 / 100_000)

    def test_outcome_records(self):
        doc = json.loads(_report().to_json())
        assert len(doc["outcomes"]) == 3
        first = doc["outcomes"][0]
        assert first["field"] == "temperature"
        assert first["snapshot"] == 0
        assert first["ratio"] == pytest.approx(32768 / 2048)
        assert first["compressor"] is None

    def test_empty_report_is_serializable(self):
        doc = json.loads(StreamReport().to_json())
        assert doc["overall_ratio"] is None
        assert doc["outcomes"] == []
        assert "timings" not in doc
        assert doc["n_retries"] == 0

    def test_canonical_json(self):
        # sort_keys=True: byte-identical exports for identical runs.
        text = _report().to_json()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True)


class TestToTable:
    def test_every_outcome_renders(self):
        table = _report().to_table()
        assert "stream report" in table
        assert table.count("temperature") == 2
        assert "baryon_density" in table

    def test_custom_title(self):
        assert _report().to_table(title="run 42").splitlines()[0] == "run 42"

    def test_header_columns(self):
        header = _report().to_table().splitlines()[1]
        for col in ("snap", "z", "field", "eb_avg", "scale", "ratio", "bytes", "drift"):
            assert col in header

