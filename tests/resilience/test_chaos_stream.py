"""End-to-end chaos: injected faults, retries, crashes, and resume.

Every scenario checks the same invariant from a different angle: fault
tolerance must be *invisible in the output*.  A retried transient
fault, a re-run field, or an interrupted-then-resumed run has to
produce payloads and ledger decisions bitwise identical to a run where
nothing went wrong.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.core.config import FieldSpec
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.rate_model import RateModel
from repro.resilience import (
    FaultPlan,
    InjectedCrash,
    RetryPolicy,
    TornWrite,
)
from repro.sim.io import save_snapshot
from repro.stream import (
    DirectoryStream,
    DriftConfig,
    InSituController,
    RunLedger,
    replay_ledger,
)
from repro.stream.state import BudgetGovernor

#: Zero-wait policy: chaos tests never sleep on wall-clock time.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _payload_table(report, start=0):
    """Every compressed byte of a run from snapshot ``start`` on, keyed
    for exact comparison."""
    table = []
    for o in report.outcomes:
        if o.snapshot_index < start:
            continue
        assert o.result is not None, "retain_results=True required"
        table.append(
            (
                o.snapshot_index,
                o.field,
                tuple(float(eb) for eb in o.result.ebs),
                [b.payloads for b in o.result.blocks],
            )
        )
    return table


class TestTransientFaultsAreInvisible:
    def test_retried_compress_faults_leave_payloads_bitwise_identical(
        self, chaos_stream, chaos_dec
    ):
        clean = InSituController(chaos_dec).run(chaos_stream(3))

        # temperature's first attempt in snapshots 0 and 1 (its count
        # runs on across snapshots: snapshot 0's retry is invocation 1).
        plan = FaultPlan(seed=3).arm(
            "backend.compress", kind="crash", at=(0, 2), field="temperature"
        )
        ctl = InSituController(chaos_dec, retry=FAST_RETRY)
        with plan.activate():
            chaotic = ctl.run(chaos_stream(3))

        assert plan.fired("backend.compress", "temperature") == 2
        assert chaotic.n_retries == 2
        assert chaotic.n_degradations == 0
        assert _payload_table(chaotic) == _payload_table(clean)

    def test_retried_ledger_appends_keep_the_ledger_identical(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        clean_path = tmp_path / "clean.jsonl"
        InSituController(
            chaos_dec, ledger=clean_path, retain_results=False
        ).run(chaos_stream(2))

        chaos_path = tmp_path / "chaos.jsonl"
        plan = FaultPlan(seed=6).arm("ledger.append", kind="crash", at=(2, 7))
        ctl = InSituController(
            chaos_dec, ledger=chaos_path, retry=FAST_RETRY, retain_results=False
        )
        with plan.activate():
            report = ctl.run(chaos_stream(2))
        ctl.ledger.close()

        assert plan.fired("ledger.append") == 2
        assert report.n_retries == 2
        # Retried appends reuse their sequence ids: byte-identical files.
        assert chaos_path.read_bytes() == clean_path.read_bytes()

    def test_directory_stream_survives_transient_load_faults(
        self, tmp_path, chaos_sim
    ):
        for i, z in enumerate([5.0, 4.0, 3.0]):
            save_snapshot(chaos_sim.snapshot(z=z), tmp_path / f"snap_{i:04d}.npz")

        clean = list(DirectoryStream(tmp_path, pattern="snap_*.npz"))
        plan = FaultPlan(seed=4).arm("source.load", kind="crash", at=(0, 2))
        stream = DirectoryStream(tmp_path, pattern="snap_*.npz", retry=FAST_RETRY)
        with plan.activate():
            loaded = list(stream)

        assert plan.fired("source.load") == 2
        assert len(loaded) == len(clean) == 3
        for got, want in zip(loaded, clean):
            assert got.redshift == want.redshift
            for name in want.fields:
                assert np.array_equal(got[name], want[name])


class TestFieldSiteRetry:
    def test_crashed_features_retry_at_the_field_site_and_match_clean(
        self, chaos_stream, chaos_dec
    ):
        """A crash in the rank loop re-runs the whole field: the task is
        pure, so the retried field is the field a clean run compresses."""
        clean = InSituController(chaos_dec).run(chaos_stream(2))

        # baryon_density's first attempt in snapshots 0 and 1.
        plan = FaultPlan(seed=5).arm(
            "backend.features", kind="crash", at=(0, 2), field="baryon_density"
        )
        ctl = InSituController(chaos_dec, retry=FAST_RETRY)
        with plan.activate():
            chaotic = ctl.run(chaos_stream(2))

        assert plan.fired("backend.features", "baryon_density") == 2
        assert chaotic.n_retries == 2
        assert _payload_table(chaotic) == _payload_table(clean)

    def test_failed_snapshot_leaves_the_pipeline_usable(self, chaos_sim, chaos_dec):
        data = chaos_sim.snapshot(z=1.0)["temperature"]
        pipe = AdaptiveCompressionPipeline(
            RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
        )
        clean = pipe.run(data, chaos_dec, eb_avg=0.2)
        plan = FaultPlan(seed=8).arm("backend.compress", kind="crash", at=0)
        with plan.activate():
            with pytest.raises(InjectedCrash):
                pipe.run(data, chaos_dec, eb_avg=0.2)
            again = pipe.run(data, chaos_dec, eb_avg=0.2)
        assert [b.payloads for b in again.blocks] == [b.payloads for b in clean.blocks]


class TestInterruptedRunResumes:
    def test_governed_8_snapshot_crash_resumes_byte_identical(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        """The headline scenario: a governed 8-snapshot stream dies
        mid-run with a torn final ledger line; the resumed run must be
        indistinguishable from one that never crashed."""
        # A detector tight enough to fire (and force refits) before the
        # tear, so the resumed report has drift verdicts to reproduce.
        settings = dict(
            byte_budget=800_000,
            drift=DriftConfig(z_threshold=1.5, window=2, min_points=1, rate_sigma=0.02),
            retain_results=False,
        )
        base_path = tmp_path / "base.jsonl"
        base_report = InSituController(chaos_dec, ledger=base_path, **settings).run(
            chaos_stream(8)
        )
        baseline = replay_ledger(base_path)

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(chaos_dec, ledger=crash_path, **settings)
        # Tear a mid-run append: the write lands partially on disk and
        # the "process" dies with the snapshot incomplete.
        plan = FaultPlan(seed=1).arm("ledger.append", kind="torn", at=26, fraction=0.6)
        with plan.activate(), pytest.raises(TornWrite):
            ctl.run(chaos_stream(8))
        ctl.ledger.close()
        assert plan.fired("ledger.append") == 1

        resumed = InSituController.resume(crash_path, retain_results=False)
        assert 0 < resumed.report.n_snapshots < 8, "must resume mid-stream"
        assert resumed.report.n_recoveries == 1

        report = resumed.run(chaos_stream(8))
        assert report.n_snapshots == 8

        ledger = RunLedger.load(crash_path)
        assert len(ledger.select("recovery")) == 1
        assert len(ledger.select("resume")) == 1
        assert ledger.select("resume")[0].data["truncated_bytes"] > 0

        assert replay_ledger(crash_path) == baseline
        # The resumed report is the uninterrupted one: its rows are
        # folded from the recorded events, drift verdicts included.
        want, got = json.loads(base_report.to_json()), json.loads(report.to_json())
        assert any(o["drift"] for o in want["outcomes"][: len(want["outcomes"]) // 2])
        for key in (
            "outcomes",
            "recalibrations",
            "n_recalibrations",
            "raw_bytes",
            "compressed_bytes",
        ):
            assert got[key] == want[key], key

    def test_worker_crash_plus_torn_tail_resumes_byte_identical(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        """The acceptance scenario verbatim: a worker crash kills the
        run mid-snapshot (some fields already recorded) *and* the final
        ledger line is torn mid-append; resume absorbs both."""
        base_path = tmp_path / "base.jsonl"
        InSituController(
            chaos_dec, ledger=base_path, byte_budget=800_000, retain_results=False
        ).run(chaos_stream(8))
        baseline = replay_ledger(base_path)

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(
            chaos_dec, ledger=crash_path, byte_budget=800_000, retain_results=False
        )
        # No retry policy: the crashed worker takes the whole run down
        # after the snapshot's first field was already ledgered
        # (temperature's 5th step: snapshot 4).
        plan = FaultPlan(seed=9).arm(
            "backend.compress", kind="crash", at=4, field="temperature"
        )
        with plan.activate(), pytest.raises(InjectedCrash):
            ctl.run(chaos_stream(8))
        ctl.ledger.close()
        # The dying process was also mid-append: tear the final line.
        raw = crash_path.read_bytes()
        crash_path.write_bytes(raw[:-9])

        resumed = InSituController.resume(crash_path, retain_results=False)
        assert resumed.report.n_recoveries == 1
        assert 0 < resumed.report.n_snapshots < 8
        report = resumed.run(chaos_stream(8))
        assert report.n_snapshots == 8
        assert replay_ledger(crash_path) == baseline

    def test_crashed_field_step_leaves_no_record(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        """A field step returns its records and the snapshot loop appends
        them, so a field whose compression raises leaves none on disk —
        not even the selection and calibration it had already worked out."""
        settings = dict(candidates=["sz", "zfp_like:rate=8"], retain_results=False)
        base_path = tmp_path / "base.jsonl"
        InSituController(chaos_dec, ledger=base_path, **settings).run(chaos_stream(3))
        baseline = replay_ledger(base_path)

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(chaos_dec, ledger=crash_path, **settings)
        # No retry policy: snapshot 0's second field takes the run down.
        plan = FaultPlan(seed=4).arm(
            "backend.compress", kind="crash", at=0, field="temperature"
        )
        with plan.activate(), pytest.raises(InjectedCrash):
            ctl.run(chaos_stream(3))
        ctl.ledger.close()

        first, second = next(iter(chaos_stream(1))).fields
        on_disk = RunLedger.load(crash_path).events
        assert on_disk[-1].kind == "outcome"
        assert on_disk[-1].data["field"] == first
        assert not [e for e in on_disk if e.data.get("field") == second]

        resumed = InSituController.resume(crash_path, retain_results=False)
        assert resumed.report.n_snapshots == 0
        report = resumed.run(chaos_stream(3))
        assert report.n_snapshots == 3
        assert replay_ledger(crash_path) == baseline

    def test_ungoverned_crash_reruns_last_snapshot_and_stays_identical(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        base_path = tmp_path / "base.jsonl"
        InSituController(chaos_dec, ledger=base_path, retain_results=False).run(
            chaos_stream(4)
        )
        baseline = replay_ledger(base_path)

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(chaos_dec, ledger=crash_path, retain_results=False)
        plan = FaultPlan(seed=7).arm("ledger.append", kind="torn", at=9, fraction=0.4)
        with plan.activate(), pytest.raises(TornWrite):
            ctl.run(chaos_stream(4))
        ctl.ledger.close()

        resumed = InSituController.resume(crash_path, retain_results=False)
        report = resumed.run(chaos_stream(4))
        assert report.n_snapshots == 4
        # Without a governor, the last referenced snapshot cannot be
        # proven complete, so it is conservatively re-executed; the
        # resume event supersedes the duplicates on replay.
        assert replay_ledger(crash_path) == baseline

    def test_primed_never_policy_crash_in_snapshot_0_resumes(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        """Prime-time calibrations are pre-stream state: a crash inside
        snapshot 0 must not withdraw them (under ``never`` nothing could
        ever refit them)."""
        first = next(iter(chaos_stream(1)))
        base_path = tmp_path / "base.jsonl"
        base = InSituController(
            chaos_dec, ledger=base_path, recalibrate="never", retain_results=False
        )
        base.prime(first)
        base.run(chaos_stream(3))
        baseline = replay_ledger(base_path)

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(
            chaos_dec, ledger=crash_path, recalibrate="never", retain_results=False
        )
        ctl.prime(first)
        # The 2nd append after prime() — snapshot 0's first outcome.
        plan = FaultPlan(seed=3).arm("ledger.append", kind="torn", at=1, fraction=0.5)
        with plan.activate(), pytest.raises(TornWrite):
            ctl.run(chaos_stream(3))
        ctl.ledger.close()

        resumed = InSituController.resume(crash_path, retain_results=False)
        assert resumed.report.n_snapshots == 0
        assert resumed.calibrations.keys() == set(first.fields)
        report = resumed.run(chaos_stream(3))
        assert report.n_snapshots == 3
        assert replay_ledger(crash_path) == baseline

    def test_resume_steers_with_the_recorded_governor_parameters(
        self, chaos_stream, chaos_dec, tmp_path, monkeypatch
    ):
        """No constructor argument sets the governor's ``gain`` /
        ``max_scale`` any more, but a ledger may record non-default
        ones: the governor that steers a resumed run is the one the
        reducer rebuilds from the ``governor`` event."""
        import repro.stream.controller as controller_mod

        settings = dict(byte_budget=30_000, retain_results=False)
        base_path, crash_path = tmp_path / "base.jsonl", tmp_path / "crash.jsonl"
        with monkeypatch.context() as writer:
            # Stand-in for whatever wrote such a ledger.
            writer.setattr(
                controller_mod,
                "BudgetGovernor",
                functools.partial(BudgetGovernor, gain=0.5, max_scale=1.5),
            )
            InSituController(chaos_dec, ledger=base_path, **settings).run(chaos_stream(6))
            ctl = InSituController(chaos_dec, ledger=crash_path, **settings)
            plan = FaultPlan(seed=2).arm("ledger.append", kind="torn", at=14, fraction=0.5)
            with plan.activate(), pytest.raises(TornWrite):
                ctl.run(chaos_stream(6))
            ctl.ledger.close()
        baseline = replay_ledger(base_path)
        recorded = RunLedger.load(base_path).select("governor")[0].data
        assert (recorded["gain"], recorded["max_scale"]) == (0.5, 1.5)

        resumed = InSituController.resume(crash_path, retain_results=False)
        assert 0 < resumed.report.n_snapshots < 6
        assert (resumed.governor.gain, resumed.governor.max_scale) == (0.5, 1.5)
        report = resumed.run(chaos_stream(6))
        assert report.n_snapshots == 6
        assert replay_ledger(crash_path) == baseline

        # The recorded values matter: the stock governor decides otherwise.
        stock_path = tmp_path / "stock.jsonl"
        InSituController(chaos_dec, ledger=stock_path, **settings).run(chaos_stream(6))
        assert replay_ledger(stock_path) != baseline

    def test_resuming_a_sealed_run_is_a_noop(self, chaos_stream, chaos_dec, tmp_path):
        path = tmp_path / "done.jsonl"
        InSituController(chaos_dec, ledger=path, retain_results=False).run(
            chaos_stream(2)
        )
        n_events = len(RunLedger.load(path).events)
        baseline = replay_ledger(path)

        resumed = InSituController.resume(path, retain_results=False)
        report = resumed.run(chaos_stream(2))
        resumed.ledger.close()
        assert report.n_snapshots == 2
        # A completed run gains no events — not even a resume marker.
        assert len(RunLedger.load(path).events) == n_events
        assert replay_ledger(path) == baseline

    def test_pinned_field_resumes_onto_its_own_compressor(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        """A field's compressor is a function of its folded state: a field
        pinned to its own spec compresses after a resume with the bytes
        of the uninterrupted run, and the live and resumed controllers
        show the same calibrations, field for field."""
        first, second = next(iter(chaos_stream(1))).fields
        settings = dict(
            field_specs={first: FieldSpec(compressor="sz:codec=huffman")},
            byte_budget=800_000,
        )
        live = InSituController(chaos_dec, **settings)
        want = _payload_table(live.run(chaos_stream(6)))

        crash_path = tmp_path / "crash.jsonl"
        ctl = InSituController(chaos_dec, ledger=crash_path, **settings)
        plan = FaultPlan(seed=1).arm("ledger.append", kind="torn", at=20, fraction=0.5)
        with plan.activate(), pytest.raises(TornWrite):
            ctl.run(chaos_stream(6))
        ctl.ledger.close()

        # The ledger records the budget and drift settings, not the field specs.
        resumed = InSituController.resume(crash_path, field_specs=settings["field_specs"])
        start = resumed.report.n_snapshots
        assert 0 < start < 6
        report = resumed.run(chaos_stream(6))
        assert _payload_table(report, start) == [row for row in want if row[0] >= start]
        assert {
            b.codec_name
            for o in report.outcomes[-2:]
            for b in o.result.blocks
        } == {"huffman", "zlib"}

        def fits(c):
            return {n: (f.rate_model, f.coef_r2, f.exponents.size) for n, f in c.items()}

        assert fits(resumed.calibrations) == fits(live.calibrations)
        assert fits(live.calibrations).keys() == {first, second}


class TestDegradation:
    def test_exhausted_retries_fall_back_quarantine_and_replay(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        path = tmp_path / "degraded.jsonl"
        # Both attempts of the first field run fail; the budget is
        # exhausted and the field must degrade to the fallback spec.
        plan = FaultPlan(seed=2).arm(
            "backend.compress", kind="crash", at=(0, 1), field="baryon_density"
        )
        ctl = InSituController(
            chaos_dec,
            ledger=path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            fallback_compressor="sz:codec=zlib",
            retain_results=False,
        )
        with plan.activate():
            report = ctl.run(chaos_stream(3))
        ctl.ledger.close()

        assert report.n_retries >= 1
        assert report.n_degradations == 1
        assert len(report.degraded_fields) == 1
        degraded = report.degraded_fields[0]

        events = RunLedger.load(path).select("degradation")
        assert len(events) == 1
        assert events[0].data["field"] == degraded
        assert events[0].data["fallback"]["params"]["codec"] == "zlib"

        decisions = replay_ledger(path)
        assert len(decisions) == 6  # 3 snapshots x 2 fields, none lost
        for dec in decisions:
            if dec.field == degraded:
                assert dec.compressor is not None
                assert dict(dec.compressor.params)["codec"] == "zlib"

    def test_no_fallback_configured_propagates_the_failure(
        self, chaos_stream, chaos_dec
    ):
        from repro.resilience import RetryExhaustedError

        plan = FaultPlan(seed=2).arm(
            "backend.compress", kind="crash", at=(0, 1), field="baryon_density"
        )
        ctl = InSituController(
            chaos_dec, retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        )
        with plan.activate(), pytest.raises(RetryExhaustedError):
            ctl.run(chaos_stream(2))
