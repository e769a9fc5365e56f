"""Append-only JSONL run ledger."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.stream.ledger import EVENT_KINDS, LedgerError, LedgerEvent, RunLedger


class TestAppend:
    def test_monotonic_sequence(self):
        ledger = RunLedger()
        seqs = [ledger.append("decision", field=f"f{i}").seq for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert ledger.next_seq == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(LedgerError, match="unknown event kind"):
            RunLedger().append("bogus")

    def test_numpy_values_serialized(self):
        ledger = RunLedger()
        event = ledger.append(
            "decision",
            ebs=np.array([0.5, 0.25]),
            n=np.int64(7),
            flag=np.bool_(True),
            nested={"x": np.float64(1.5)},
        )
        # Everything JSON-native after append.
        round_tripped = json.loads(event.to_json())["data"]
        assert round_tripped == {
            "ebs": [0.5, 0.25],
            "n": 7,
            "flag": True,
            "nested": {"x": 1.5},
        }

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError, match="serialize"):
            RunLedger().append("decision", bad=object())

    def test_select(self):
        ledger = RunLedger()
        ledger.append("run_start")
        ledger.append("decision", field="a")
        ledger.append("outcome", field="a")
        ledger.append("decision", field="b")
        assert [e.data["field"] for e in ledger.select("decision")] == ["a", "b"]
        with pytest.raises(LedgerError):
            ledger.select("bogus")


class TestFileRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append("run_start", n_snapshots=2)
            ledger.append("decision", field="t", ebs=[0.1, 0.2])
        loaded = RunLedger.load(path)
        assert len(loaded) == 2
        assert loaded.events[1].data["ebs"] == [0.1, 0.2]
        # One JSON object per line, in order.
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_floats_survive_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        value = 0.1 + 0.2  # not representable prettily
        with RunLedger(path) as ledger:
            ledger.append("decision", eb=value)
        assert RunLedger.load(path).events[0].data["eb"] == value

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append("run_start")
        with RunLedger(path) as ledger:
            assert ledger.next_seq == 1
            event = ledger.append("run_end")
        assert event.seq == 1
        assert [e.seq for e in RunLedger.load(path).events] == [0, 1]

    def test_append_after_close_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        ledger.append("run_start")
        ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            ledger.append("run_end")
        # A load()-ed ledger is read-only for the same reason.
        with pytest.raises(LedgerError, match="closed"):
            RunLedger.load(path).append("run_end")
        # In-memory ledgers have no file to desynchronize from.
        mem = RunLedger()
        mem.close()
        mem.append("run_start")

    def test_sequence_gap_detected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "kind": "run_start", "data": {}})
            + "\n"
            + json.dumps({"seq": 2, "kind": "run_end", "data": {}})
            + "\n"
        )
        with pytest.raises(LedgerError, match="monotonic"):
            RunLedger.load(path)

    def test_malformed_line_detected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0, "kind": "run_start", "data": {}}\nnot json\n')
        with pytest.raises(LedgerError, match="malformed"):
            RunLedger.load(path)

    def test_unknown_kind_on_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0, "kind": "mystery", "data": {}}\n')
        with pytest.raises(LedgerError, match="unknown"):
            RunLedger.load(path)

    def test_open_and_load_report_the_same_torn_tail(self, tmp_path):
        """Both recovering readers report one ``recovered_tail`` for the
        same damage; only opening for append truncates the file."""
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.append("run_start")
            ledger.append("decision", field="t", ebs=[0.1, 0.2])
        intact = path.read_bytes()
        damaged = intact + b'{"seq": 2, "kind": "outc'
        path.write_bytes(damaged)
        expected = {
            "valid_events": 2,
            "valid_bytes": len(intact),
            "truncated_bytes": len(damaged) - len(intact),
            "torn_line": '{"seq": 2, "kind": "outc',
        }
        loaded = RunLedger.load(path, recover=True)
        assert loaded.recovered_tail == expected
        assert path.read_bytes() == damaged
        opened = RunLedger(path, recover=True)
        opened.close()
        assert opened.recovered_tail == expected
        assert opened.events[:2] == loaded.events
        assert path.read_bytes().startswith(intact)
        assert RunLedger.load(path, recover=True).recovered_tail is None


class TestEvent:
    def test_kinds_cover_lifecycle(self):
        assert "calibration" in EVENT_KINDS
        assert "recalibration" in EVENT_KINDS
        assert "decision" in EVENT_KINDS
        assert "outcome" in EVENT_KINDS

    def test_from_json_requires_fields(self):
        with pytest.raises(LedgerError, match="seq"):
            LedgerEvent.from_json('{"kind": "decision"}')
