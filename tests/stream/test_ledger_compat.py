"""Ledger schema compatibility across the compressor-backbone refactor.

PR 4 ledgers predate compressor specs (schema v1: no ``schema`` key on
``run_start``, no ``spec`` on calibration/decision events, no
``selection`` events).  The frozen fixture in ``fixtures/pr4_ledger.jsonl``
was written in exactly that format; it must keep replaying byte-for-byte
forever.  Schema v2 ledgers — with specs recorded and mixed compressor
configurations across fields — must round-trip through
:func:`~repro.stream.controller.replay_ledger` with tamper detection
intact.

``fixtures/v2_ledger.jsonl`` and ``fixtures/v3_ledger.jsonl`` were
written by the last commit that still had the three hand-written ledger
walkers (recipe: ``fixtures/README.md``), and every fixture's replayed
decisions are pinned in a sibling ``*.decisions.json`` — so the reducer
is checked against bytes and results the old walkers produced, not
against itself.
"""

from __future__ import annotations

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.compression.api import REGISTRY, CompressorSpec, resolve_compressor
from repro.core.config import FieldSpec
from repro.stream.controller import replay_ledger
from repro.stream.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    RunLedger,
)
from repro.stream.source import SimulatorStream

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "pr4_ledger.jsonl"


def _bounds(decisions):
    return [(d.snapshot_index, d.field, list(d.ebs)) for d in decisions]


def _pinned_v3_bounds():
    pinned = json.loads((FIXTURES / "v3_ledger.decisions.json").read_text())
    return [(p["snapshot"], p["field"], p["ebs"]) for p in pinned]


class TestFrozenFixtures:
    @pytest.mark.parametrize(
        "name", ["pr4_ledger", "v2_ledger", "v3_ledger", "v3_model_ledger"]
    )
    def test_replays_to_pinned_decisions(self, name):
        decisions = replay_ledger(FIXTURES / f"{name}.jsonl", verify=True)
        pinned = json.loads((FIXTURES / f"{name}.decisions.json").read_text())
        assert [
            {
                "snapshot": d.snapshot_index,
                "field": d.field,
                "eb_avg": d.eb_avg,
                "ebs": list(d.ebs),
                "spec": None if d.compressor is None else d.compressor.to_dict(),
            }
            for d in decisions
        ] == pinned

    def test_v2_fixture_shape(self):
        """Two runs back to back — pinned per-field specs, then a
        candidate slate — in the PR 5-era format."""
        events = RunLedger.load(FIXTURES / "v2_ledger.jsonl").events
        starts = [e for e in events if e.kind == "run_start"]
        assert len(starts) == 2
        assert all(e.data["schema"] == 2 and "blocks" not in e.data for e in starts)
        assert starts[0].data["candidates"] is None
        assert len(starts[1].data["candidates"]) == 2
        kinds = {e.kind for e in events}
        assert "selection" in kinds and "recalibration" in kinds
        assert not kinds & {"recovery", "resume", "degradation"}

    def test_v3_fixture_folds_to_the_uninterrupted_state(self):
        """Governed; one field degrades in snapshot 0; the run dies in
        snapshot 2 after degrading the *other* field too, with a torn
        tail.  The resume withdraws that second degradation."""
        from repro.stream.state import RunState, apply

        events = RunLedger.load(FIXTURES / "v3_ledger.jsonl").events
        kinds = [e.kind for e in events]
        assert kinds.count("degradation") == 2
        assert kinds.count("recovery") == kinds.count("resume") == 1
        state = RunState()
        for event in events:
            apply(state, event)
        assert state.quarantined == {"baryon_density"}
        assert state.report.n_degradations == 1
        assert state.report.degraded_fields == ["baryon_density"]
        assert state.report.n_recoveries == 1
        assert state.sealed == 5 and state.governor.snapshots_done == 5
        assert [(o.snapshot_index, o.field) for o in state.report.outcomes] == [
            (i, f) for i in range(5) for f in ("baryon_density", "temperature")
        ]
        assert state.governor.spent == state.report.compressed_bytes

    def test_model_ledger_selections_read_without_their_predicted_quality(self):
        """Model-mode selection used to gate on predicted quality and
        record each verdict's predicted PSNR and quality; a ledger that
        carries them still folds to readable selections."""
        from repro.stream.controller import InSituController

        path = FIXTURES / "v3_model_ledger.jsonl"
        events = RunLedger.load(path).events
        assert events[0].data["probe_mode"] == "model"
        selections = [e.data for e in events if e.kind == "selection"]
        assert len(selections) == 6
        assert all(
            "predicted_psnr_db" in v and "predicted_quality" in v
            for sel in selections
            for v in sel["verdicts"]
            if v["eligible"]
        )
        ctl = InSituController.resume(path)
        ctl.close()
        assert sorted(ctl.selections) == ["baryon_density", "temperature"]
        latest = {sel["field"]: sel for sel in selections}
        retired = ("predicted_psnr_db", "predicted_quality")
        for name, sel in ctl.selections.items():
            assert sel.chosen == resolve_compressor("sz").spec
            assert sel.to_dict()["verdicts"] == [
                {k: x for k, x in v.items() if k not in retired}
                for v in latest[name]["verdicts"]
            ]

    def test_model_ledger_resumes_to_its_pinned_decisions(self, tmp_path, stream_sim):
        """Cut before its last snapshot, the model-mode run resumes under
        rate-only selection and re-makes that snapshot's decisions."""
        from repro.stream.controller import InSituController

        lines = (FIXTURES / "v3_model_ledger.jsonl").read_text().splitlines()
        assert json.loads(lines[20])["data"]["snapshot"] == 2
        cut = tmp_path / "model-cut.jsonl"
        cut.write_text("\n".join(lines[:20]) + "\n")
        ctl = InSituController.resume(cut, max_partitions=8)
        ctl.run(
            SimulatorStream(
                stream_sim, [2.0, 1.5, 1.0], fields=["baryon_density", "temperature"]
            )
        )
        ctl.close()
        appended = RunLedger.load(cut).events[20:]
        assert appended[0].kind == "resume" and appended[-1].kind == "run_end"
        pinned = json.loads((FIXTURES / "v3_model_ledger.decisions.json").read_text())
        assert _bounds(replay_ledger(cut, verify=True)) == [
            (p["snapshot"], p["field"], p["ebs"]) for p in pinned
        ]

    def test_estimate_stamped_ledger_folds_to_model_mode(self, tmp_path):
        """``"estimate"`` stopped being a probe mode; a ledger whose
        ``run_start`` still says so reads as ``"model"`` (what its
        calibration probes were), resumes and replays."""
        from repro.stream.controller import InSituController

        lines = (FIXTURES / "v3_ledger.jsonl").read_text().splitlines()
        start = json.loads(lines[0])
        assert start["kind"] == "run_start" and start["data"]["probe_mode"] == "exact"
        start["data"]["probe_mode"] = "estimate"
        lines[0] = json.dumps(start, sort_keys=True, separators=(",", ":"))
        old = tmp_path / "estimate.jsonl"
        old.write_text("\n".join(lines) + "\n")

        ctl = InSituController.resume(old)
        assert ctl.state.config.probe_mode == "model"
        ctl.close()
        assert _bounds(replay_ledger(old, verify=True)) == _pinned_v3_bounds()

    def test_a_refused_resume_closes_the_ledger_it_opened(self, tmp_path):
        """A ``run_start`` that sets the retired quality margin is refused
        while the ledger is folded: the append handle ``resume`` opened
        is closed, not left to the garbage collector; a ``RunLedger`` the
        caller passed in stays open."""
        from repro.stream.controller import InSituController

        lines = (FIXTURES / "v3_ledger.jsonl").read_text().splitlines()
        start = json.loads(lines[0])
        start["data"]["drift"]["quality_margin"] = 1.0
        lines[0] = json.dumps(start, sort_keys=True, separators=(",", ":"))
        margin = tmp_path / "margin.jsonl"
        margin.write_text("\n".join(lines) + "\n")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(LedgerError, match="quality_margin"):
                InSituController.resume(margin)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

        with RunLedger(margin, recover=True) as passed:
            with pytest.raises(LedgerError, match="quality_margin"):
                InSituController.resume(passed)
            assert passed.append("recovery", truncated_bytes=0).seq == len(lines)

    @pytest.mark.parametrize("recorded", [True, False])
    def test_a_flipped_drift_flag_is_refused_at_its_seq(self, tmp_path, recorded):
        """The fold re-runs the rate detector on each outcome's recorded
        bitrates: that is the drift verdict, and a ``recalibrate_next``
        flag that disagrees with it is a corrupt ledger."""
        lines = (FIXTURES / "v3_ledger.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        i = next(
            i
            for i, e in enumerate(events)
            if e["kind"] == "outcome" and e["data"]["recalibrate_next"] is recorded
        )
        events[i]["data"]["recalibrate_next"] = not recorded
        lines[i] = json.dumps(events[i], sort_keys=True, separators=(",", ":"))
        flipped = tmp_path / "flipped.jsonl"
        flipped.write_text("\n".join(lines) + "\n")
        seq = events[i]["seq"]
        for verify in (True, False):
            with pytest.raises(LedgerError, match=rf"seq {seq} \(outcome\)"):
                replay_ledger(flipped, verify=verify)

    @pytest.mark.parametrize("stamp", ["thread", "process"])
    def test_backend_stamped_ledger_resumes_and_replays(self, tmp_path, stream_sim, stamp):
        """The thread and process backends are gone; a ledger whose
        ``run_start`` names either still replays, and resumes on the one
        path, because the recorded backend is written for the reader and
        never read back."""
        from repro.stream.controller import InSituController

        lines = (FIXTURES / "v3_ledger.jsonl").read_text().splitlines()
        start = json.loads(lines[0])
        assert start["kind"] == "run_start" and start["data"]["backend"] == "serial"
        start["data"]["backend"] = stamp
        lines[0] = json.dumps(start, sort_keys=True, separators=(",", ":"))
        old = tmp_path / f"{stamp}.jsonl"
        old.write_text("\n".join(lines) + "\n")
        pinned = _pinned_v3_bounds()
        assert _bounds(replay_ledger(old, verify=True)) == pinned

        # Cut before snapshot 4: the resumed run appends its own events.
        cut = tmp_path / f"{stamp}-cut.jsonl"
        cut.write_text("\n".join(lines[:35]) + "\n")
        ctl = InSituController.resume(cut)
        ctl.run(
            SimulatorStream(
                stream_sim, [3.2, 2.8, 2.4, 2.0, 1.6],
                fields=["baryon_density", "temperature"],
            )
        )
        ctl.close()
        appended = RunLedger.load(cut).events[35:]
        assert appended[0].kind == "resume" and appended[-1].kind == "run_end"
        assert _bounds(replay_ledger(cut, verify=True))[:-2] == pinned[:-2]

    @pytest.mark.parametrize("stamp", ["thread", "process"])
    @pytest.mark.parametrize("name", ["pr4_ledger", "v2_ledger", "v3_ledger"])
    def test_backend_stamped_runs_replay_to_pinned_decisions(self, tmp_path, name, stamp):
        """Every schema's ``run_start`` carries a backend name; naming a
        retired backend in each of them changes no decision."""
        lines = []
        for line in (FIXTURES / f"{name}.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event["kind"] == "run_start":
                assert event["data"]["backend"] == "serial"
                event["data"]["backend"] = stamp
                line = json.dumps(event, sort_keys=True, separators=(",", ":"))
            lines.append(line)
        old = tmp_path / f"{stamp}-{name}.jsonl"
        old.write_text("\n".join(lines) + "\n")

        pinned = json.loads((FIXTURES / f"{name}.decisions.json").read_text())
        assert _bounds(replay_ledger(old, verify=True)) == [
            (p["snapshot"], p["field"], p["ebs"]) for p in pinned
        ]

    @pytest.mark.parametrize("retired", ["numba", "numpy"])
    def test_retired_kernels_stamp_resolves_resumes_and_replays(
        self, tmp_path, stream_sim, retired
    ):
        """The ``kernels`` spec key chose between implementations with
        identical bytes and is gone; a ledger stamped with any of its
        values (``numba`` used to refuse to load without the package)
        reads as plain ``sz``."""
        from repro.stream.controller import InSituController

        text = (FIXTURES / "v3_ledger.jsonl").read_text()
        assert text.count('"kernels":"auto"') == 21
        lines = text.replace('"kernels":"auto"', f'"kernels":"{retired}"').splitlines()
        pinned = _pinned_v3_bounds()

        whole = tmp_path / "whole.jsonl"
        whole.write_text("\n".join(lines) + "\n")
        InSituController.resume(whole).close()
        assert _bounds(replay_ledger(whole, verify=True)) == pinned

        # Cut before snapshot 4: the resumed run appends its own events.
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:35]) + "\n")
        ctl = InSituController.resume(cut)
        ctl.run(
            SimulatorStream(
                stream_sim, [3.2, 2.8, 2.4, 2.0, 1.6],
                fields=["baryon_density", "temperature"],
            )
        )
        ctl.close()
        appended = RunLedger.load(cut).events[35:]
        assert appended[0].kind == "resume" and appended[-1].kind == "run_end"
        specs = [e.data["spec"] for e in appended if e.kind == "decision"]
        assert len(specs) == 2
        assert all(sorted(s["params"]) == ["codec", "engine", "mode", "radius"] for s in specs)
        assert _bounds(replay_ledger(cut, verify=True))[:-2] == pinned[:-2]

        stored = json.loads(lines[0])["data"]["compressor"]
        assert stored["params"]["kernels"] == retired
        data = np.asarray(stream_sim.snapshot(z=1.0)["temperature"])
        old = resolve_compressor(CompressorSpec.from_dict(stored)).compress(data, 5.0)
        assert old.payloads == resolve_compressor("sz").compress(data, 5.0).payloads

    def test_v3_fixture_tamper_names_the_seq(self, tmp_path):
        lines = (FIXTURES / "v3_ledger.jsonl").read_text().splitlines()
        budget = next(
            json.loads(line) for line in lines if json.loads(line)["kind"] == "budget"
        )
        budget["data"]["scale_next"] *= 1.5
        lines[budget["seq"]] = json.dumps(budget)
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            LedgerError, match=rf"replay diverged at seq {budget['seq']} \(budget\)"
        ):
            replay_ledger(bad, verify=True)

    @pytest.mark.parametrize(
        "what, old, new",
        [
            ("halo", '"reference_eb":0.1', '"reference_eb":0.2'),
            ("constraint", '"constraint":"combined"', '"constraint":"Combined"'),
        ],
        ids=["halo", "constraint"],
    )
    def test_v2_fixture_one_byte_tamper_names_the_seq(self, tmp_path, what, old, new):
        """A halo-aware decision's reference bound and its constraint name
        move no bound, so only replay recomputing them catches an edit."""
        lines = (FIXTURES / "v2_ledger.jsonl").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if old in line)
        lines[at] = lines[at].replace(old, new, 1)
        seq = json.loads(lines[at])["seq"]
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            LedgerError, match=rf"replay diverged at seq {seq} \(decision\): {what} "
        ):
            replay_ledger(bad, verify=True)


class TestPR4Fixture:
    def test_fixture_is_schema_v1(self):
        events = RunLedger.load(FIXTURE).events
        start = events[0]
        assert start.kind == "run_start"
        assert "schema" not in start.data
        assert "compressor" not in start.data
        assert all(e.kind != "selection" for e in events)
        assert all(
            "spec" not in e.data
            for e in events
            if e.kind in ("calibration", "recalibration", "decision")
        )

    def test_replays_byte_for_byte(self):
        """verify=True re-runs the optimizer + governor and compares every
        recomputed bound against the recorded one for exact equality —
        the fixture replaying cleanly IS the byte-for-byte guarantee."""
        decisions = replay_ledger(FIXTURE, verify=True)
        recorded = [
            e for e in RunLedger.load(FIXTURE).events if e.kind == "decision"
        ]
        assert len(decisions) == len(recorded) == 6
        for dec, event in zip(decisions, recorded):
            assert dec.ebs == tuple(float(x) for x in event.data["ebs"])
            assert dec.eb_avg == float(event.data["eb_avg"])
            # Spec-less ledgers surface no compressor identity.
            assert dec.compressor is None

    def test_fixture_tamper_detected(self, tmp_path):
        lines = FIXTURE.read_text().splitlines()
        tampered = []
        for line in lines:
            ev = json.loads(line)
            if ev["kind"] == "decision" and not tampered:
                ev["data"]["ebs"][0] *= 1.01
                tampered.append(ev["seq"])
            lines[ev["seq"]] = json.dumps(ev)
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="replay diverged"):
            replay_ledger(bad, verify=True)


@pytest.fixture(scope="module")
def mixed_ledger_path(tmp_path_factory, stream_sim, stream_dec):
    """A schema-v2 run with a different compressor pinned per field."""
    from repro.stream.controller import InSituController

    path = tmp_path_factory.mktemp("ledgers") / "mixed.jsonl"
    ctl = InSituController(
        stream_dec,
        field_specs={
            "baryon_density": FieldSpec(compressor="sz:codec=huffman"),
            "temperature": FieldSpec(compressor="sz_adaptive"),
        },
        ledger=path,
        max_partitions=8,
    )
    ctl.run(
        SimulatorStream(
            stream_sim, [2.0, 1.0], fields=["baryon_density", "temperature"]
        )
    )
    ctl.close()
    return path


class TestMixedCompressorLedger:
    def test_schema_v2_recorded(self, mixed_ledger_path):
        events = RunLedger.load(mixed_ledger_path).events
        assert events[0].data["schema"] == LEDGER_SCHEMA_VERSION
        specs = {
            e.data["field"]: e.data["spec"]["family"]
            for e in events
            if e.kind == "decision"
        }
        assert specs == {"baryon_density": "sz", "temperature": "sz_adaptive"}

    def test_mixed_ledger_replays_with_specs(self, mixed_ledger_path):
        decisions = replay_ledger(mixed_ledger_path, verify=True)
        by_field = {d.field: d.compressor for d in decisions}
        # Freshly written ledgers record the *full* instance config, so
        # compare against the registry-canonical form of the request.
        assert by_field["baryon_density"] == REGISTRY.canonical(
            CompressorSpec.sz(codec="huffman")
        )
        assert by_field["temperature"].family == "sz_adaptive"

    def test_mixed_ledger_tamper_detected(self, mixed_ledger_path, tmp_path):
        lines = mixed_ledger_path.read_text().splitlines()
        out = []
        done = False
        for line in lines:
            ev = json.loads(line)
            if ev["kind"] == "decision" and not done:
                ev["data"]["eb_avg"] *= 2.0
                done = True
            out.append(json.dumps(ev))
        bad = tmp_path / "tampered_mixed.jsonl"
        bad.write_text("\n".join(out) + "\n")
        with pytest.raises(LedgerError, match="replay diverged"):
            replay_ledger(bad, verify=True)

    def test_selection_events_replay_clean(self, stream_sim, stream_dec, tmp_path):
        """A candidate-slate run writes ``selection`` events; replay skips
        them and still verifies every decision."""
        from repro.stream.controller import InSituController

        path = tmp_path / "selected.jsonl"
        ctl = InSituController(
            stream_dec,
            candidates=["sz", "zfp_like:rate=8"],
            ledger=path,
            max_partitions=8,
        )
        ctl.run(SimulatorStream(stream_sim, [2.0], fields=["temperature"]))
        ctl.close()
        events = RunLedger.load(path).events
        assert any(e.kind == "selection" for e in events)
        sel = next(e for e in events if e.kind == "selection")
        assert sel.data["chosen"]["family"] == "sz"
        verdicts = {v["spec"]["family"]: v for v in sel.data["verdicts"]}
        assert not verdicts["zfp_like"]["eligible"]
        assert verdicts["zfp_like"]["reason"].startswith("rejected: fixed-rate:")
        assert verdicts["zfp_like"]["eb_violation"] is None
        decisions = replay_ledger(path, verify=True)
        assert decisions and decisions[0].compressor.family == "sz"
