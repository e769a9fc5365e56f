"""End-to-end chaos: injected faults, retries, crashes, and resume.

Every scenario checks the same invariant from a different angle: fault
tolerance must be *invisible in the output*.  A retried transient
fault, a rebuilt worker pool, or an interrupted-then-resumed run has to
produce payloads and ledger decisions bitwise identical to a run where
nothing went wrong.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pytest

from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.rate_model import RateModel
from repro.parallel.backends import ProcessBackend
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


def _payload_table(report):
    """Every compressed byte of a run, keyed for exact comparison."""
    table = []
    for o in report.outcomes:
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

        plan = FaultPlan(seed=3).arm("backend.compress", kind="crash", at=(1, 4))
        ctl = InSituController(chaos_dec, retry=FAST_RETRY)
        with plan.activate():
            chaotic = ctl.run(chaos_stream(3))

        assert plan.fired("backend.compress") == 2
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


class TestWorkerCrash:
    def test_killed_worker_rebuilds_pool_and_matches_serial(
        self, chaos_stream, chaos_dec
    ):
        serial = InSituController(chaos_dec).run(chaos_stream(2))

        plan = FaultPlan(seed=5).arm("backend.compress", kind="exit", at=0)
        backend = ProcessBackend(
            max_workers=2,
            start_method="fork",
            retry_policy=FAST_RETRY,
            # One-shot kill: disarm after the first death so the
            # re-forked replacement workers inherit a harmless plan.
            on_retry=lambda site, attempt, exc, delay: plan.disarm(
                "backend.compress"
            ),
        )
        try:
            with plan.activate():
                # The pool forks inside the activated plan, so workers
                # inherit the armed fault and one genuinely _exit()s.
                ctl = InSituController(chaos_dec, backend=backend)
                chaotic = ctl.run(chaos_stream(2))
        finally:
            backend.close()

        assert backend.n_pool_rebuilds >= 1
        assert backend.n_retries >= 1
        assert _payload_table(chaotic) == _payload_table(serial)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_failed_snapshot_releases_shared_memory(self, chaos_sim, chaos_dec):
        data = chaos_sim.snapshot(z=1.0)["temperature"]
        before = set(os.listdir("/dev/shm"))
        pipe = AdaptiveCompressionPipeline(
            RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3),
            backend=ProcessBackend(max_workers=2, start_method="fork"),
        )
        plan = FaultPlan(seed=8).arm("backend.compress", kind="crash", at=0)
        try:
            with plan.activate(), pytest.raises(InjectedCrash):
                pipe.run(data, chaos_dec, eb_avg=0.2)
        finally:
            pipe.close()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"


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
        # after the snapshot's first field was already ledgered.
        plan = FaultPlan(seed=9).arm("backend.compress", kind="crash", at=9)
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


class TestDegradation:
    def test_exhausted_retries_fall_back_quarantine_and_replay(
        self, chaos_stream, chaos_dec, tmp_path
    ):
        path = tmp_path / "degraded.jsonl"
        # Both attempts of the first field run fail; the budget is
        # exhausted and the field must degrade to the fallback spec.
        plan = FaultPlan(seed=2).arm("backend.compress", kind="crash", at=(0, 1))
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

        plan = FaultPlan(seed=2).arm("backend.compress", kind="crash", at=(0, 1))
        ctl = InSituController(
            chaos_dec, retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        )
        with plan.activate(), pytest.raises(RetryExhaustedError):
            ctl.run(chaos_stream(2))
