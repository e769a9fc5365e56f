"""InSituController: warm starts, drift-gated recalibration, budget
governor, and deterministic ledger replay."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.compression.api import UnsupportedCapabilityError
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.core.config import FieldSpec
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.sim.nyx import FIELD_NAMES, NyxSnapshot
from repro.stream.controller import (
    BudgetGovernor,
    InSituController,
    replay_ledger,
)
from repro.stream.drift import DriftConfig
from repro.stream.ledger import LedgerError, RunLedger
from repro.stream.source import SnapshotSequence
from repro.stream.state import StreamReport
from repro.telemetry.report import overhead_summary


#: A stream selection's verdict on a fixed-rate candidate.
_NO_BOUND = (
    "rejected: fixed-rate: no absolute error bound, which the adaptive pipeline requires"
)


def _single_field(snapshot: NyxSnapshot, name: str, data=None) -> NyxSnapshot:
    return NyxSnapshot(
        fields={name: snapshot[name] if data is None else data},
        redshift=snapshot.redshift,
        box_size=snapshot.box_size,
    )


@pytest.fixture(scope="module")
def base_snapshot(stream_sim):
    return stream_sim.snapshot(z=1.0)


class TestDriftGating:
    def test_stationary_stream_zero_recalibrations(self, stream_dec, base_snapshot):
        """A statistically stationary stream must never trigger a refit."""
        ctl = InSituController(stream_dec, max_partitions=8)
        report = ctl.run(SnapshotSequence([base_snapshot] * 4))
        assert report.n_recalibrations == 0
        assert report.recalibrations == []
        # Warm start: identical data, frozen models -> identical decisions.
        by_field: dict[str, list] = {}
        for o in report.outcomes:
            by_field.setdefault(o.field, []).append(o)
        for rows in by_field.values():
            assert len(rows) == 4
            assert all(o.eb_avg == rows[0].eb_avg for o in rows)
            assert all(np.array_equal(o.result.ebs, rows[0].result.ebs) for o in rows)

    def test_injected_shift_exactly_one_recalibration(
        self, stream_dec, base_snapshot
    ):
        """A spatial-decorrelation shift mid-stream forces one refit.

        Shuffling the voxels preserves the feature the rate model sees
        (mean |value|) while destroying the Lorenzo predictability the
        bitrate depends on — the model's prediction goes stale and only
        recalibration can fix it.
        """
        name = "velocity_x"
        data = base_snapshot[name]
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(data.ravel()).reshape(data.shape).copy()
        base = _single_field(base_snapshot, name)
        shifted = _single_field(base_snapshot, name, shuffled)

        ctl = InSituController(
            stream_dec,
            max_partitions=8,
            drift=DriftConfig(z_threshold=4.0, window=2, min_points=2, rate_sigma=0.1),
        )
        report = ctl.run(SnapshotSequence([base, base, shifted, shifted, shifted]))

        # The shift moves ln(achieved/predicted) by ~0.4.  A window of one
        # stale and one shifted residual reads z ~ 0.2 * sqrt(2) / 0.1 = 3,
        # two shifted ones z ~ 5.7: the (default) threshold of 4 sits
        # between them whatever the entropy stage's last few percent are
        # (3.0 sat within 6 % of the first figure), so the detector needs
        # two post-shift residuals — it fires at snapshot 3 and the refit
        # lands at snapshot 4.
        assert report.n_recalibrations == 1
        assert report.recalibrations == [(4, name, "drift")]
        assert report.outcomes[3].drift_signal is not None
        # Post-shift, pre-recalibration: large under-prediction.
        assert report.outcomes[2].residual > 0.2
        # After the refit the model describes the shifted data again.
        assert abs(report.outcomes[4].residual) < 0.1
        assert report.outcomes[4].drift_signal is None
        # The ledger shows exactly one recalibration event.
        assert len(ctl.ledger.select("recalibration")) == 1
        assert len(ctl.ledger.select("calibration")) == 1

    def test_drift_triggers_reselection_with_candidates(
        self, stream_dec, base_snapshot
    ):
        """With a candidate slate, a drift-triggered refit re-runs the
        compressor selection, not just the rate-model fit."""
        name = "velocity_x"
        data = base_snapshot[name]
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(data.ravel()).reshape(data.shape).copy()
        base = _single_field(base_snapshot, name)
        shifted = _single_field(base_snapshot, name, shuffled)

        ctl = InSituController(
            stream_dec,
            max_partitions=8,
            candidates=["sz", "zfp_like:rate=8"],
            drift=DriftConfig(z_threshold=3.0, window=2, min_points=2, rate_sigma=0.1),
        )
        report = ctl.run(SnapshotSequence([base, base, shifted, shifted, shifted]))
        assert report.n_recalibrations == 1
        selections = ctl.ledger.select("selection")
        # One selection at the initial calibration, one at the drift refit.
        assert [e.data["reason"] for e in selections] == ["initial", "drift"]
        assert all(e.data["chosen"]["family"] == "sz" for e in selections)
        zfp_verdicts = [
            v
            for e in selections
            for v in e.data["verdicts"]
            if v["spec"]["family"] == "zfp_like"
        ]
        # Rejected from its capabilities: nothing was measured.
        assert all(not v["eligible"] for v in zfp_verdicts)
        assert all(v["reason"] == _NO_BOUND for v in zfp_verdicts)
        assert all(
            v[k] is None
            for v in zfp_verdicts
            for k in ("measured_bit_rate", "max_abs_error", "eb_violation")
        )
        # The decision events carry the selected spec throughout.
        assert all(
            e.data["spec"]["family"] == "sz"
            for e in ctl.ledger.select("decision")
        )
        # Replay stays byte-for-byte with selections in the ledger.
        from repro.stream.controller import replay_ledger as _replay

        assert len(_replay(ctl.ledger.events)) == 5

    def test_governed_selection_never_runs_a_fixed_rate_candidate(
        self, stream_sim, stream_dec, monkeypatch
    ):
        """The stream requires a bound, so its selections reject
        ``zfp_like`` from its capabilities: the codec is never run."""

        def refuse(*_, **__):
            raise AssertionError("a fixed-rate candidate was run")

        for name in ("compress", "compress_many", "decompress"):
            monkeypatch.setattr(ZFPLikeCompressor, name, refuse)
        ctl = InSituController(
            stream_dec,
            max_partitions=8,
            candidates=["sz", "zfp_like:rate=8"],
            byte_budget=40_000,
            recalibrate="always",
        )
        snaps = [stream_sim.snapshot(z=z) for z in (2.0, 1.5, 1.0)]
        ctl.run(SnapshotSequence([_single_field(s, "temperature") for s in snaps]))
        selections = ctl.ledger.select("selection")
        assert len(selections) == 3
        assert all(e.data["verdicts"][1]["reason"] == _NO_BOUND for e in selections)
        assert len(replay_ledger(ctl.ledger, verify=True)) == 3

    def test_model_mode_slate_runs_above_the_derived_budget(
        self, stream_sim, stream_dec
    ):
        """``probe_mode`` changes only how rates are probed: a bound set
        above the Eq. 10 budget runs in model mode as it does in exact
        mode, and a model-mode slate picks what an exact one does."""
        spec = FieldSpec(eb_override=5000.0)  # the derived budget is ~1000
        snaps = [stream_sim.snapshot(z=z) for z in (2.0, 1.0)]
        chosen = {}
        for mode in ("exact", "model"):
            ctl = InSituController(
                stream_dec,
                max_partitions=8,
                candidates=["sz", "sz:codec=huffman"],
                field_specs={"temperature": spec},
                probe_mode=mode,
            )
            report = ctl.run(
                SnapshotSequence([_single_field(s, "temperature") for s in snaps])
            )
            assert report.n_snapshots == 2
            assert {o.eb_avg for o in report.outcomes} == {5000.0}
            (verdict,) = [e.data for e in ctl.ledger.select("selection")]
            assert all(v["eligible"] for v in verdict["verdicts"])
            chosen[mode] = ctl.selections["temperature"].chosen
        assert chosen["model"] == chosen["exact"]

    def test_always_policy_recalibrates_every_snapshot(
        self, stream_dec, base_snapshot
    ):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8, recalibrate="always")
        report = ctl.run(SnapshotSequence([snap] * 3))
        assert report.n_recalibrations == 2  # first one is the initial fit
        assert [r[2] for r in report.recalibrations] == ["forced", "forced"]


class TestWarmStart:
    def test_budget_inversion_amortized(
        self, stream_dec, base_snapshot, monkeypatch
    ):
        import repro.stream.controller as controller_mod

        calls = {"n": 0}
        real = controller_mod.derive_eb_budget

        def counting(spec, ref):
            calls["n"] += 1
            return real(spec, ref)

        monkeypatch.setattr(controller_mod, "derive_eb_budget", counting)
        snap = _single_field(base_snapshot, "temperature")

        warm = InSituController(stream_dec, max_partitions=8)
        warm.run(SnapshotSequence([snap] * 3))
        assert calls["n"] == 1  # once, at the initial calibration

        calls["n"] = 0
        cold = InSituController(stream_dec, max_partitions=8, warm_start=False)
        cold.run(SnapshotSequence([snap] * 3))
        assert calls["n"] == 3  # re-derived per snapshot (batch semantics)

    def test_never_policy_requires_priming(self, stream_dec, base_snapshot):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8, recalibrate="never")
        with pytest.raises(KeyError, match="was not calibrated"):
            ctl.process_snapshot(snap)
        ctl.prime(snap)
        outcomes = ctl.process_snapshot(snap)
        assert len(outcomes) == 1
        assert ctl.calibrations.keys() == {"temperature"}


_BATCH_SPECS = {
    "baryon_density": FieldSpec(
        spectrum_tolerance=0.02, correlated_fraction=0.5, halo_aware=True
    ),
    "dark_matter_density": FieldSpec(
        spectrum_tolerance=0.02, correlated_fraction=0.5, halo_aware=True
    ),
    "temperature": FieldSpec(correlated_fraction=0.5),
}


def _batch_controller(dec, **kwargs) -> InSituController:
    """Batch use is two arguments: frozen models, budgets re-derived per
    snapshot (what ``CompressionCampaign`` used to wrap)."""
    kwargs.setdefault("field_specs", _BATCH_SPECS)
    return InSituController(dec, recalibrate="never", warm_start=False, **kwargs)


class TestBatchUse:
    """Calibrate once, then every field of every dump: the paper's §1
    storage arithmetic on the controller alone.  (That an un-primed
    field is refused is ``TestWarmStart.test_never_policy_requires_priming``.)"""

    REDSHIFTS = (1.0, 0.5)

    @pytest.fixture(scope="class")
    def batch(self, stream_sim, stream_dec):
        ctl = _batch_controller(stream_dec, max_partitions=8)
        ctl.prime(stream_sim.snapshot(z=2.0))
        snaps = {z: stream_sim.snapshot(z=z) for z in self.REDSHIFTS}
        for snap in snaps.values():
            ctl.process_snapshot(snap)
        return ctl, snaps

    def test_compresses_every_field_without_recalibrating(self, batch):
        ctl, _ = batch
        for z in self.REDSHIFTS:
            done = {o.field for o in ctl.report.outcomes if o.redshift == z}
            assert done == set(FIELD_NAMES)
        assert ctl.report.n_recalibrations == 0

    def test_storage_accounting(self, batch):
        report = batch[0].report
        assert report.compressed_bytes < report.raw_bytes
        assert report.overall_ratio > 1.0
        for name in FIELD_NAMES:
            rows = [o for o in report.outcomes if o.field == name]
            assert report.field_ratio(name) == sum(o.raw_bytes for o in rows) / sum(
                o.compressed_bytes for o in rows
            )
            assert report.field_ratio(name) > 1.0
        with pytest.raises(KeyError, match="velocity_w"):
            report.field_ratio("velocity_w")

    def test_snapshot_ratio_lookup(self, batch):
        report = batch[0].report
        for z in self.REDSHIFTS:
            rows = [o for o in report.outcomes if o.redshift == z]
            assert report.snapshot_ratio(z) == sum(o.raw_bytes for o in rows) / sum(
                o.compressed_bytes for o in rows
            )
            assert report.snapshot_ratio(z) > 1.0
        with pytest.raises(KeyError):
            report.snapshot_ratio(9.9)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            StreamReport().overall_ratio
        with pytest.raises(KeyError):
            StreamReport().field_ratio("temperature")

    def test_eb_override_used(self, stream_sim, stream_dec):
        overrides = {
            "baryon_density": 0.5,
            "dark_matter_density": 0.5,
            "temperature": 50.0,
            "velocity_x": 1e6,
            "velocity_y": 1e6,
            "velocity_z": 1e6,
        }
        ctl = _batch_controller(
            stream_dec,
            field_specs={k: FieldSpec(eb_override=v) for k, v in overrides.items()},
            max_partitions=4,
        )
        snap = stream_sim.snapshot(z=1.0)
        ctl.prime(snap)
        outcomes = ctl.process_snapshot(snap)
        assert len(outcomes) == len(overrides)
        assert all(o.eb_avg == overrides[o.field] for o in outcomes)

    def test_error_bounds_hold(self, batch, stream_dec):
        ctl, snaps = batch
        for o in ctl.report.outcomes:
            recon = o.result.reconstruct(stream_dec)
            err = np.max(np.abs(recon - snaps[o.redshift][o.field].astype(np.float64)))
            assert err <= o.result.ebs.max() * (1 + 1e-9) + 1e-12

    def test_every_field_is_timed_by_its_rank_loop(self, stream_sim, stream_dec):
        """The run's time is its spans: each field's rank loop records its
        phases under that field's ``stream.field`` span."""
        ctl = _batch_controller(stream_dec, max_partitions=8)
        ctl.prime(stream_sim.snapshot(z=2.0))
        with telemetry.armed() as tracer:
            ctl.process_snapshot(stream_sim.snapshot(z=self.REDSHIFTS[0]))
        spans = tracer.export_spans()
        by_id = {s["span_id"]: s for s in spans}

        def owning_field(span):
            while span["name"] != "stream.field":
                span = by_id[span["parent_id"]]
            return span["attrs"]["field"]

        runs = [s for s in spans if s["name"] == "backend.snapshot"]
        assert sorted(owning_field(s) for s in runs) == sorted(FIELD_NAMES)
        assert overhead_summary(spans)["compress"] > 0

    def test_controller_and_pipeline_agree_byte_for_byte(self, stream_sim, stream_dec):
        """The controller runs the pipeline's rank loop: its decision's
        inputs through the pipeline give the same bounds and bytes."""
        from repro.core.config import HaloQualitySpec
        from repro.core.pipeline import AdaptiveCompressionPipeline

        snap = stream_sim.snapshot(z=1.0)
        specs = {"baryon_density": FieldSpec(halo_aware=True)}
        ctl = _batch_controller(stream_dec, field_specs=specs, max_partitions=4)
        ctl.prime(snap)
        outcomes = ctl.process_snapshot(snap)
        decisions = {e.data["field"]: e.data for e in ctl.ledger.select("decision")}
        assert decisions["baryon_density"]["halo"] is not None
        for o in outcomes:
            halo = decisions[o.field]["halo"]
            pipe = AdaptiveCompressionPipeline(ctl.calibrations[o.field].rate_model)
            want = pipe.run(
                snap[o.field], stream_dec, eb_avg=o.eb_avg,
                halo=None if halo is None else HaloQualitySpec(**halo),
            )
            assert np.array_equal(o.result.ebs, want.ebs)
            assert [blk.payloads for blk in o.result.blocks] == [
                blk.payloads for blk in want.blocks
            ]

    def test_replay_equals_live_bounds(self, batch):
        ctl, _ = batch
        decisions = replay_ledger(ctl.ledger)
        live = {(o.redshift, o.field): o.result.ebs for o in ctl.report.outcomes}
        assert len(decisions) == len(ctl.report.outcomes)
        for d in decisions:
            assert np.array_equal(np.asarray(d.ebs), live[(d.redshift, d.field)])


class TestBudgetGovernor:
    def test_overspend_raises_bounds(self):
        gov = BudgetGovernor(total_bytes=1000, n_snapshots=4)
        scale = gov.observe(500, exponent=-1.0)  # spent 2x the allowance
        assert scale > 1.0
        assert gov.spent == 500

    def test_underspend_relaxes_bounds(self):
        gov = BudgetGovernor(total_bytes=1000, n_snapshots=4)
        scale = gov.observe(100, exponent=-1.0)
        assert scale < 1.0

    def test_scale_clamped(self):
        gov = BudgetGovernor(total_bytes=1000, n_snapshots=4, max_scale=4.0)
        assert gov.observe(999, exponent=-0.2) == 4.0
        gov2 = BudgetGovernor(total_bytes=10**9, n_snapshots=4, max_scale=4.0)
        assert gov2.observe(1, exponent=-0.2) == 0.25

    def test_exhausted_budget_pins_max_scale(self):
        gov = BudgetGovernor(total_bytes=100, n_snapshots=3)
        gov.observe(200, exponent=-1.0)
        assert gov.scale == gov.max_scale

    def test_last_snapshot_keeps_scale(self):
        gov = BudgetGovernor(total_bytes=1000, n_snapshots=1)
        assert gov.observe(5000, exponent=-1.0) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_bytes": 0, "n_snapshots": 2},
            {"total_bytes": 10, "n_snapshots": 0},
            {"total_bytes": 10, "n_snapshots": 2, "gain": 0.0},
            {"total_bytes": 10, "n_snapshots": 2, "max_scale": 0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BudgetGovernor(**kwargs)

    def test_run_lands_within_five_percent(self, stream_sim, stream_dec):
        snaps = [
            _single_field(stream_sim.snapshot(z=z), "temperature")
            for z in (3.0, 2.0, 1.5, 1.0, 0.7, 0.5)
        ]
        probe = InSituController(stream_dec, max_partitions=8)
        natural = probe.run(SnapshotSequence(snaps)).compressed_bytes

        budget = int(0.85 * natural)
        ctl = InSituController(stream_dec, max_partitions=8, byte_budget=budget)
        report = ctl.run(SnapshotSequence(snaps))
        assert report.byte_budget == budget
        assert abs(report.compressed_bytes - budget) / budget <= 0.05

    def test_prime_then_budgeted_run(self, stream_dec, base_snapshot):
        """prime() must not require the snapshot count — only streaming
        does, and run() can still infer it from the sized stream."""
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(
            stream_dec, max_partitions=8, byte_budget=10**6, recalibrate="never"
        )
        ctl.prime(snap)
        report = ctl.run(SnapshotSequence([snap, snap]))
        assert report.n_snapshots == 2
        assert ctl.governor is not None and ctl.governor.n_snapshots == 2
        # The governor event trails run_start/calibrations but precedes
        # every budget event, so replay arms the replica in time.
        kinds = [e.kind for e in ctl.ledger.events]
        assert kinds.index("governor") > kinds.index("calibration")
        assert kinds.index("governor") < kinds.index("budget")
        assert len(replay_ledger(ctl.ledger)) == 2

    def test_budget_requires_snapshot_count(self, stream_dec, base_snapshot):
        ctl = InSituController(stream_dec, max_partitions=8, byte_budget=10**6)
        with pytest.raises(RuntimeError, match="n_snapshots"):
            ctl.process_snapshot(base_snapshot)
        # run() infers the count from the sized stream.
        snap = _single_field(base_snapshot, "temperature")
        ctl2 = InSituController(stream_dec, max_partitions=8, byte_budget=10**6)
        report = ctl2.run(SnapshotSequence([snap, snap]))
        assert ctl2.governor is not None
        assert ctl2.governor.n_snapshots == 2
        assert report.n_snapshots == 2


class TestLedgerReplay:
    @pytest.fixture()
    def run_with_ledger(self, tmp_path, stream_sim, stream_dec):
        """A governed, halo-aware, multi-field run recorded to disk."""
        path = tmp_path / "run.jsonl"
        snaps = [
            NyxSnapshot(
                fields={
                    "baryon_density": s["baryon_density"],
                    "temperature": s["temperature"],
                },
                redshift=s.redshift,
                box_size=s.box_size,
            )
            for s in (stream_sim.snapshot(z=z) for z in (2.0, 1.0, 0.5, 0.3))
        ]
        specs = {"baryon_density": FieldSpec(halo_aware=True)}
        probe = InSituController(stream_dec, field_specs=specs, max_partitions=8)
        natural = probe.run(SnapshotSequence(snaps)).compressed_bytes
        ctl = InSituController(
            stream_dec,
            field_specs=specs,
            max_partitions=8,
            ledger=str(path),
            byte_budget=int(0.9 * natural),
        )
        report = ctl.run(SnapshotSequence(snaps))
        ctl.close()
        return path, report

    def test_replay_reproduces_decisions_bit_for_bit(self, run_with_ledger):
        path, report = run_with_ledger
        decisions = replay_ledger(path)  # reads the JSONL only
        assert len(decisions) == len(report.outcomes)
        for replayed, live in zip(decisions, report.outcomes):
            assert replayed.field == live.field
            assert replayed.snapshot_index == live.snapshot_index
            assert replayed.eb_avg == live.eb_avg
            # Byte-identical per-partition bounds.
            assert (
                np.asarray(replayed.ebs, dtype=np.float64).tobytes()
                == live.result.ebs.tobytes()
            )

    def test_replay_accepts_ledger_objects(self, run_with_ledger):
        path, report = run_with_ledger
        ledger = RunLedger.load(path)
        assert len(replay_ledger(ledger)) == len(report.outcomes)
        assert len(replay_ledger(ledger.events)) == len(report.outcomes)

    def test_replay_detects_tampered_decision(self, run_with_ledger, tmp_path):
        path, _ = run_with_ledger
        lines = path.read_text().strip().splitlines()
        tampered = []
        poisoned = False
        for line in lines:
            obj = json.loads(line)
            if not poisoned and obj["kind"] == "decision":
                obj["data"]["ebs"][0] *= 1.0 + 1e-9
                poisoned = True
            tampered.append(json.dumps(obj))
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(tampered) + "\n")
        with pytest.raises(LedgerError, match="replay diverged"):
            replay_ledger(bad)

    def test_replay_detects_tampered_bytes(self, run_with_ledger, tmp_path):
        path, _ = run_with_ledger
        lines = path.read_text().strip().splitlines()
        tampered = []
        poisoned = False
        for line in lines:
            obj = json.loads(line)
            if not poisoned and obj["kind"] == "outcome":
                obj["data"]["compressed_bytes"] += 1
                poisoned = True
            tampered.append(json.dumps(obj))
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(tampered) + "\n")
        with pytest.raises(LedgerError, match="replay diverged"):
            replay_ledger(bad)

    def test_reopened_ledger_with_two_runs_replays(
        self, tmp_path, stream_dec, base_snapshot
    ):
        """Re-opening a ledger file appends a second run; replay resets
        its replica state at every run_start (an ungoverned run's bytes
        must not leak into the governed run's budget accounting)."""
        path = tmp_path / "run.jsonl"
        snap = _single_field(base_snapshot, "temperature")
        first = InSituController(stream_dec, max_partitions=8, ledger=str(path))
        first.run(SnapshotSequence([snap, snap]))
        first.close()
        second = InSituController(
            stream_dec, max_partitions=8, ledger=str(path), byte_budget=10**6
        )
        second.run(SnapshotSequence([snap, snap]))
        second.close()
        decisions = replay_ledger(path)
        assert len(decisions) == 4
        assert len(RunLedger.load(path).select("run_start")) == 2

    def test_local_protocol_replay(self, stream_sim, stream_dec):
        """The paper's local protocol (per-rank solves from one
        allreduce) must replay bitwise."""
        from repro.core.config import OptimizerSettings

        snaps = [stream_sim.snapshot(z=z) for z in (2.0, 1.0)]
        settings = OptimizerSettings(normalization="local")
        ctl = InSituController(stream_dec, settings=settings, max_partitions=8)
        report = ctl.run(SnapshotSequence(snaps))
        decisions = replay_ledger(ctl.ledger)
        assert len(decisions) == len(report.outcomes) > 0
        assert [d.ebs for d in decisions] == [
            tuple(o.result.ebs.tolist()) for o in report.outcomes
        ]

    def test_live_ledger_replayable_in_memory(self, stream_dec, base_snapshot):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8)
        report = ctl.run(SnapshotSequence([snap] * 2))
        decisions = replay_ledger(ctl.ledger)
        assert [d.ebs for d in decisions] == [
            tuple(o.result.ebs.tolist()) for o in report.outcomes
        ]


class TestReportAndLifecycle:
    def test_run_start_names_no_backend(self, stream_dec, base_snapshot):
        """There is one execution path, so ``run_start`` names none (older
        ledgers' ``backend`` key is never read back)."""
        ctl = InSituController(stream_dec, max_partitions=8)
        ctl.run(SnapshotSequence([_single_field(base_snapshot, "temperature")]))
        (start,) = ctl.ledger.select("run_start")
        assert "backend" not in start.data
        assert not hasattr(ctl, "backend")

    @pytest.mark.parametrize(
        "kwargs, needs",
        [
            ({"compressor": "zfp_like:rate=8"}, "'error_bounded'"),
            (
                {"candidates": ["zfp_like:rate=8", "zfp_like:rate=16"]},
                "'error_bounded'",
            ),
            ({"fallback_compressor": "zfp_like"}, "'error_bounded'"),
            (
                {"field_specs": {"temperature": FieldSpec(compressor="zfp_like")}},
                "'error_bounded'",
            ),
            ({"default_spec": FieldSpec(compressor="zfp_like")}, "'error_bounded'"),
            ({"compressor": "sz_adaptive"}, "supports_estimate"),
            (
                {"field_specs": {"temperature": FieldSpec(compressor="sz_adaptive")}},
                "supports_estimate",
            ),
            ({"candidates": ["sz", "sz_adaptive"]}, "supports_estimate"),
            ({"fallback_compressor": "sz_adaptive"}, "supports_estimate"),
        ],
        ids=[
            "compressor",
            "slate",
            "fallback",
            "pinned-fixed-rate",
            "default-pin-fixed-rate",
            "model-compressor",
            "model-pin",
            "model-slate-member",
            "model-fallback",
        ],
    )
    def test_a_run_that_cannot_compress_fails_at_construction(
        self, stream_dec, tmp_path, monkeypatch, kwargs, needs
    ):
        """A fixed-rate compressor, fallback or field pin, or a slate with
        no error-bounded member, is refused before the ledger is opened
        and before anything is compressed; so, under the codec-free probe
        mode, is anything the run may compress with that cannot take the
        probe."""

        def refuse(*_, **__):
            raise AssertionError("a fixed-rate compressor was run")

        monkeypatch.setattr(ZFPLikeCompressor, "compress_many", refuse)
        path = tmp_path / "run.jsonl"
        probe_mode = "exact" if needs == "'error_bounded'" else "model"
        with pytest.raises(UnsupportedCapabilityError, match=needs):
            InSituController(stream_dec, ledger=path, probe_mode=probe_mode, **kwargs)
        assert not path.exists()

    def test_one_error_bounded_candidate_is_enough(self, stream_dec):
        """The slate needs one error-bounded member, wherever it stands,
        and a slate leaves the field specs' pins unread."""
        InSituController(stream_dec, candidates=["zfp_like:rate=8", "sz"]).close()
        InSituController(
            stream_dec,
            candidates=["sz", "zfp_like:rate=8"],
            default_spec=FieldSpec(compressor="zfp_like"),
            probe_mode="model",
        ).close()

    def test_report_exports(self, stream_dec, base_snapshot):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8)
        report = ctl.run(SnapshotSequence([snap] * 2))
        assert report.snapshot_bytes(0) > 0
        with pytest.raises(KeyError):
            report.snapshot_bytes(99)
        table = report.to_table()
        assert "temperature" in table and "eb_avg" in table
        payload = json.loads(report.to_json())
        assert payload["n_snapshots"] == 2
        assert payload["compressed_bytes"] == report.compressed_bytes
        assert len(payload["outcomes"]) == 2

    def test_retain_results_off_keeps_accounting(self, stream_dec, base_snapshot):
        """Long streams can drop compressed payloads after accounting."""
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8, retain_results=False)
        report = ctl.run(SnapshotSequence([snap] * 2))
        assert all(o.result is None for o in report.outcomes)
        assert report.compressed_bytes > 0
        assert report.overall_ratio > 1.0
        # The ledger is complete either way: replay still reproduces.
        assert len(replay_ledger(ctl.ledger)) == 2

    def test_run_accepts_plain_snapshot_list(self, stream_dec, base_snapshot):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8)
        report = ctl.run([snap, snap])
        assert report.n_snapshots == 2

    def test_run_end_sealed_once(self, stream_dec, base_snapshot):
        snap = _single_field(base_snapshot, "temperature")
        ctl = InSituController(stream_dec, max_partitions=8)
        ctl.run(SnapshotSequence([snap]))
        ctl.finish()  # idempotent
        assert len(ctl.ledger.select("run_end")) == 1

    def test_rejects_bad_policy(self, stream_dec):
        with pytest.raises(ValueError, match="recalibrate"):
            InSituController(stream_dec, recalibrate="sometimes")

    def test_rejects_bad_budget(self, stream_dec):
        with pytest.raises(ValueError, match="byte_budget"):
            InSituController(stream_dec, byte_budget=0)


class TestQualityCheckLedgerIdentity:
    """The quality check reads the reconstruction compression wrote into
    its field buffer, with no decode; its ledger — quality deviations,
    fixed-rate measurements, every bound — must be byte-identical to one
    whose check decodes block by block, also across a retried compress
    and a degradation onto the fallback compressor."""

    @staticmethod
    def _ledger(tmp_path, name, simulator, plan=None, **kwargs) -> bytes:
        from repro.parallel.decomposition import BlockDecomposition
        from repro.resilience.faults import FaultPlan

        snaps = [simulator.snapshot(z=z) for z in (3.0, 1.5, 0.8, 0.3)]
        raw = sum(a.nbytes for s in snaps for a in s.fields.values())
        path = tmp_path / name
        ctl = InSituController(
            BlockDecomposition(snaps[0].shape, blocks=2),
            field_specs={"baryon_density": FieldSpec(halo_aware=True)},
            candidates=["sz", "zfp_like:rate=8"],
            ledger=str(path),
            byte_budget=raw // 8,
            n_snapshots=len(snaps),
            check_quality=True,
            **kwargs,
        )
        with (plan or FaultPlan(seed=0)).activate():
            report = ctl.run(SnapshotSequence(snaps))
        ctl.close()
        assert all(o.quality_deviation is not None for o in report.outcomes)
        assert any(e.kind == "selection" for e in RunLedger.load(str(path)).events)
        return path.read_bytes()

    @staticmethod
    def _forbid_decode(monkeypatch) -> None:
        from repro.compression import sz

        def refuse(blocks, out):
            raise AssertionError("an SZ block was decoded on the governed stream")

        monkeypatch.setattr(sz, "_decompress_chunk", refuse)

    @staticmethod
    def _decode_per_block(monkeypatch) -> None:
        """The reference: compress without ``out=``, then fill the field
        buffer from :func:`decompress_any` of each block."""
        from repro.compression.api import decompress_any

        real = AdaptiveCompressionPipeline.run

        def per_block(self, data, decomposition, eb_avg, halo=None, out=None):
            result = real(self, data, decomposition, eb_avg, halo)
            if out is not None:
                for part, block in zip(decomposition, result.blocks):
                    out[part.slices] = decompress_any(block)
            return result

        monkeypatch.setattr(AdaptiveCompressionPipeline, "run", per_block)

    def _both(self, tmp_path, simulator, monkeypatch, plan=None, **kwargs):
        """The ledger with no decode allowed, then the per-block reference
        (each under a fresh copy of the fault plan ``plan()`` builds)."""
        plans = [plan() if plan else None for _ in range(2)]
        with monkeypatch.context() as m:
            self._forbid_decode(m)
            written = self._ledger(tmp_path, "written.jsonl", simulator, plans[0], **kwargs)
        self._decode_per_block(monkeypatch)
        decoded = self._ledger(tmp_path, "decoded.jsonl", simulator, plans[1], **kwargs)
        return written, decoded, plans

    def test_ledger_byte_identical_to_per_block_reconstruction(
        self, tmp_path, simulator, monkeypatch
    ):
        written, decoded, _ = self._both(tmp_path, simulator, monkeypatch)
        assert written == decoded

    def test_identical_under_an_injected_compress_retry(
        self, tmp_path, simulator, monkeypatch
    ):
        from repro.resilience.faults import FaultPlan
        from repro.resilience.retry import RetryPolicy

        def plan():
            # The first attempt of two fields in snapshot 0.
            return (
                FaultPlan(seed=4)
                .arm("backend.compress", kind="crash", at=0, field="dark_matter_density")
                .arm("backend.compress", kind="crash", at=0, field="velocity_y")
            )

        retry = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        written, decoded, plans = self._both(
            tmp_path, simulator, monkeypatch, plan, retry=retry
        )
        assert written == decoded
        assert [
            [p.fired("backend.compress", f) for f in ("dark_matter_density", "velocity_y")]
            for p in plans
        ] == [[1, 1], [1, 1]]
        assert b'"kind":"degradation"' not in written

    def test_identical_under_degradation_to_the_fallback(
        self, tmp_path, simulator, monkeypatch
    ):
        from repro.resilience.faults import FaultPlan
        from repro.resilience.retry import RetryPolicy

        def plan():
            # Both attempts of temperature's step in snapshot 0.
            return FaultPlan(seed=4).arm(
                "backend.compress", kind="crash", at=(0, 1), field="temperature"
            )

        written, decoded, _ = self._both(
            tmp_path, simulator, monkeypatch, plan,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            fallback_compressor="sz:codec=huffman",
        )
        assert written == decoded
        assert b'"kind":"degradation"' in written


class TestOneWriter:
    """The snapshot loop is the one writer: a field step computes its
    records and returns them, and the loop appends exactly those, in
    field order once the snapshot's steps are done."""

    def test_field_step_writes_nothing_and_returns_what_is_appended(
        self, monkeypatch
    ):
        from repro.parallel.decomposition import BlockDecomposition
        from repro.resilience import FaultPlan, RetryPolicy
        from repro.sim.nyx import NyxSimulator
        from repro.stream import SimulatorStream
        from repro.stream.ledger import _jsonable

        # The governed run test_writer_pins.py pins: selection, drift
        # recalibration and one degradation.
        sim = NyxSimulator((16, 16, 16), box_size=16.0, seed=11, sigma_delta0=2.5)
        ctl = InSituController(
            BlockDecomposition((16, 16, 16), blocks=2),
            field_specs={"baryon_density": FieldSpec(halo_aware=True)},
            candidates=["sz", "zfp_like:rate=8"],
            check_quality=True,
            byte_budget=60_000,
            drift=DriftConfig(z_threshold=1.5, window=3, rate_sigma=0.03),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            fallback_compressor="sz:codec=zlib",
            retain_results=False,
        )
        steps = []
        real = ctl._field_step

        def watched(index, redshift, name, *args):
            before = (ctl.ledger.next_seq, len(ctl.state.log))
            records, result = real(index, redshift, name, *args)
            after = (ctl.ledger.next_seq, len(ctl.state.log))
            steps.append((index, fields.index(name), before, after, records))
            return records, result

        monkeypatch.setattr(ctl, "_field_step", watched)
        plan = FaultPlan(seed=2).arm(
            "backend.compress", kind="crash", at=(1, 2), field="baryon_density"
        )
        redshifts = [5.0, 4.0, 3.0, 2.4, 1.8, 1.2]
        fields = ("baryon_density", "temperature")
        with plan.activate():
            ctl.run(SimulatorStream(sim, redshifts, fields=fields))

        assert len(steps) == len(redshifts) * len(fields)
        events = {e.seq: e for e in ctl.ledger.events}
        # Steps may have run side by side: take them in field order.
        steps.sort(key=lambda step: step[:2])
        for index in range(len(redshifts)):
            snapshot = [step for step in steps if step[0] == index]
            # Every step of a snapshot starts from the same fold and
            # appends nothing itself.
            (before,) = {step[2] for step in snapshot}
            assert all(step[3] == before for step in snapshot)
            # The loop then appends exactly their records, field by field.
            records = [record for step in snapshot for record in step[4]]
            appended = [events[before[0] + i] for i in range(len(records))]
            assert [(e.kind, e.data) for e in appended] == [
                (kind, _jsonable(data)) for kind, data in records
            ]
        kinds = [(kind, data.get("reason")) for *_, rs in steps for kind, data in rs]
        assert ("selection", "initial") in kinds
        assert ("recalibration", "drift") in kinds
        assert ("degradation", None) in kinds
        assert ("recalibration", "degradation") in kinds
