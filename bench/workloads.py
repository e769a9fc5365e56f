"""The four workloads.  Names and parameters are the benchmark's contract:
a later change is measured against its parent with exactly these inputs.

Every workload builds its inputs from the seed alone, calls the program
only through public functions, times those calls from outside and checks
every output outside the timed phases.  ``PARAMS`` holds the exact sizes;
the ``smoke`` column exists for ``bench/test_bench_smoke.py`` only.
"""

from __future__ import annotations

import os
import statistics
import zlib

import numpy as np

from repro import (
    AdaptiveCompressionPipeline,
    BlockDecomposition,
    FieldSpec,
    InSituController,
    NyxSimulator,
    RateModelBank,
    RunLedger,
    SnapshotSequence,
    calibrate_rate_model,
    decompress_any,
    replay_ledger,
    resolve_compressor,
    select_compressor,
)
from repro.analysis.halos import find_halos
from repro.analysis.metrics import error_summary, psnr
from repro.analysis.spectrum import check_spectrum_quality, power_spectrum
from repro.cli import load_blocks, save_blocks
from repro.compression.sz import CompressedBlock
from repro.core.selection import derive_eb_budget, derive_halo_params
from repro.foresight import QualityCriteria, run_sweep
from repro.foresight.evaluator import FieldReference

from bench.harness import (
    MB,
    Recorder,
    Trace,
    compression_floors,
    contract_violations,
    metric,
    same_payloads,
    span,
    span_layer_metrics,
)

PARAMS = {
    "snapshot-128": {
        "full": dict(grid=(128, 128, 128), blocks=4, redshift=0.5, eb_rel_std=1e-2,
                     calibration_partitions=8),
        "smoke": dict(grid=(32, 32, 32), blocks=2, redshift=0.5, eb_rel_std=1e-2,
                      calibration_partitions=8),
    },
    "stream-64": {
        "full": dict(grid=(64, 64, 64), blocks=4, z_first=4.0, z_last=0.2,
                     snapshots=12, warmup_snapshots=2, verify_snapshots=4,
                     budget_divisor=8, candidates=("sz", "zfp_like:rate=8")),
        "smoke": dict(grid=(32, 32, 32), blocks=2, z_first=4.0, z_last=0.2,
                      snapshots=2, warmup_snapshots=2, verify_snapshots=2,
                      budget_divisor=8, candidates=("sz", "zfp_like:rate=8")),
    },
    "sweep-128": {
        "full": dict(grid=(128, 128, 128), blocks=4, redshift=0.5,
                     fields=("baryon_density", "temperature", "velocity_x"),
                     bounds=6, bound_lo=1e-3, bound_hi=3e-1,
                     density_tolerance=0.02, halo_percentile=99.5),
        "smoke": dict(grid=(32, 32, 32), blocks=2, redshift=0.5,
                      fields=("baryon_density", "temperature", "velocity_x"),
                      bounds=3, bound_lo=1e-3, bound_hi=3e-1,
                      density_tolerance=0.02, halo_percentile=99.5),
    },
    "family-matrix-96": {
        "full": dict(grid=(96, 80, 64), blocks=(3, 2, 2), redshift=1.0,
                     fields=("baryon_density", "temperature", "velocity_x"),
                     eb_rel_std=1e-2, pw_rel_bound=1e-2),
        "smoke": dict(grid=(48, 32, 16), blocks=(3, 2, 2), redshift=1.0,
                      fields=("baryon_density", "temperature", "velocity_x"),
                      eb_rel_std=1e-2, pw_rel_bound=1e-2),
    },
}

#: ``family-matrix-96``: label -> (compressor spec, input dtype, contract).
FAMILY_CONFIGS = {
    "sz-f32": ("sz", np.float32, "abs"),
    "sz-f64": ("sz", np.float64, "abs"),
    "sz-huffman": ("sz:codec=huffman", np.float32, "abs"),
    "sz-raw": ("sz:codec=raw", np.float32, "abs"),
    "sz_adaptive": ("sz_adaptive", np.float32, "abs"),
    "zfp_like-8": ("zfp_like:rate=8", np.float32, "fixed_rate"),
    "sz-pw_rel": ("sz:mode=pw_rel", np.float32, "pw_rel"),
}

SPECTRUM_K_MAX = 10


def _field_quality(original: np.ndarray, recon: np.ndarray) -> tuple[float, float]:
    """(PSNR in dB, worst ``|P'(k)/P(k) - 1|`` below k = 10) of one field."""
    orig = np.asarray(original, dtype=np.float64)
    _, deviation = check_spectrum_quality(orig, recon, k_max=SPECTRUM_K_MAX)
    return float(psnr(orig, recon)), float(deviation)


def _block_counts(blocks) -> dict[str, dict]:
    elements = sum(b.n_elements for b in blocks)
    outliers = sum(getattr(b, "n_outliers", 0) for b in blocks)
    return {
        "compression.blocks": metric(len(blocks), "count"),
        "compression.payload_bytes": metric(sum(b.nbytes for b in blocks), "B"),
        "compression.outlier_share": metric(outliers / elements, "share"),
    }


def _codec_rates(out: dict[str, dict], coded_MB: float) -> None:
    """``compression.{compress,decompress}_MBps`` from the seconds already in
    ``out`` and the raw MB one round pushes through the codec."""
    for stage in ("compress", "decompress"):
        out[f"compression.{stage}_MBps"] = metric(
            coded_MB / out[f"compression.{stage}_s"]["value"], "MB/s"
        )


def _setup_metrics(trace: Trace) -> dict[str, dict]:
    """``sim.*`` (and set-up calibration) read off the spans of the traced
    input synthesis and the traced build."""
    setup = [s for s in trace.spans if s["attrs"]["trace_id"] == "setup"]
    sims = [s for s in setup if s["name"] == "sim.snapshot"]
    out = {
        "sim.snapshot_s": metric(sum(s["end"] - s["start"] for s in sims), "s"),
        "sim.snapshots": metric(sum(s["attrs"]["snapshots"] for s in sims), "count"),
        "sim.MB": metric(sum(s["attrs"]["MB"] for s in sims), "MB"),
    }
    cals = [s for s in setup if s["name"] == "models.calibrate"]
    if cals:
        out["models.calibrate_s"] = metric(sum(s["end"] - s["start"] for s in cals), "s")
        out["models.calibrate_calls"] = metric(len(cals), "count")
        out["models.probe_compressions"] = metric(
            _children(trace, "models.calibrate", "sz.map"), "count"
        )
    return out


def _children(trace: Trace, parent_name: str, name: str) -> int:
    """How many ``name`` spans sit directly under a ``parent_name`` span."""
    parents = {s["span_id"] for s in trace.spans if s["name"] == parent_name}
    return sum(1 for s in trace.spans if s["name"] == name and s["parent_id"] in parents)


def _span_seconds(trace: Trace, name: str, self_time: bool = False) -> float:
    spans = [s for s in trace.spans if s["name"] == name]
    if self_time:
        return sum(s["attrs"]["self_s"] for s in spans)
    return sum(s["end"] - s["start"] for s in spans)


class Workload:
    """One workload of one pass: set-up, timed rounds, checks, metrics."""

    name: str
    #: Phases whose per-class medians add up to one round (throughput).
    round_phases: tuple[str, ...]
    #: Phases of one op's latency (``op_p50_ms`` / ``op_tail_ms``).
    op_phases: tuple[str, ...]

    def __init__(self, scale: str, snaps: list, scratch: str) -> None:
        self.p = PARAMS[self.name][scale]
        self.snaps = snaps
        self.scratch = scratch
        self.dec = BlockDecomposition(tuple(self.p["grid"]), blocks=self.p["blocks"])
        self.info: dict = {}

    @classmethod
    def simulate(cls, scale: str, seed: int) -> list:
        """Synthesise the inputs — the only place the seed enters.  A pass
        does it once and every build of the workload reads the same
        snapshots: input synthesis is not set-up of the program, and its
        time for one 128^3 snapshot varies twofold from run to run here."""
        p = PARAMS[cls.name][scale]
        grid = tuple(p["grid"])
        with span("sim.snapshot") as s:
            sim = NyxSimulator(shape=grid, box_size=float(grid[0]), seed=seed)
            snaps = [sim.snapshot(z=float(z)) for z in cls.redshifts(p)]
            s.set_attr("snapshots", len(snaps))
            s.set_attr("MB", sum(a.nbytes for sn in snaps for a in sn.fields.values()) / MB)
        return snaps

    @staticmethod
    def redshifts(p: dict) -> list[float]:
        return [p["redshift"]]

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def same_as_first_round(self, rec: Recorder, op_class: str, signature) -> None:
        """Every round must reproduce the first round's outputs exactly, so
        checking the last round's outputs in full checks them all."""
        first = self.signatures.setdefault(op_class, signature)
        rec.check(rec.op_key(op_class), signature == first,
                  f"output differs from the first round: {signature} != {first}")

    def common_metrics(self, rec: Recorder) -> dict[str, dict]:
        round_s = rec.round_seconds(self.round_phases)
        return {
            "throughput_MBps": metric(self.round_MB / round_s, "MB/s"),
            **rec.latency_metrics(self.op_phases),
        }


# -- snapshot-128 ----------------------------------------------------------------


class Snapshot(Workload):
    name = "snapshot-128"
    round_phases = ("write", "read")
    op_phases = ("write",)

    def setup(self) -> None:
        (self.snap,) = self.snaps
        self.pipes, self.eb_avg, self.signatures, self.last = {}, {}, {}, {}
        for name, data in self.snap.fields.items():
            # Bounds scale with the field's standard deviation: its value range
            # is set by one extreme cell and moves a lot from seed to seed.
            self.eb_avg[name] = float(data.std(dtype=np.float64)) * self.p["eb_rel_std"]
            with span("parallel.partition_views"):
                views = self.dec.partition_views(data)
            with span("models.calibrate"):
                cal = calibrate_rate_model(
                    views, eb_scale=self.eb_avg[name], seed=0,
                    max_partitions=self.p["calibration_partitions"],
                )
            self.pipes[name] = AdaptiveCompressionPipeline(cal.rate_model, backend="serial")
        self.round_MB = sum(a.nbytes for a in self.snap.fields.values()) / MB
        self.round(Recorder(), fields=list(self.snap.fields)[:1])  # warm-up

    def round(self, rec: Recorder, fields=None) -> None:
        for name in fields or self.snap.fields:
            data, path = self.snap[name], self.path(f"{name}.npz")
            with rec.op(name) as op:
                with rec.phase("write", name):
                    with span("core.run_insitu_spmd", op=op, field=name):
                        result = self.pipes[name].run_insitu_spmd(
                            data, self.dec, eb_avg=self.eb_avg[name]
                        )
                    with span("cli.save_blocks", op=op):
                        save_blocks(path, result.blocks, result.ebs, self.p["blocks"])
                with rec.phase("read", name):
                    with span("cli.load_blocks", op=op):
                        blocks, _, _ = load_blocks(path)
                    with span("compression.decompress", op=op):
                        parts = [decompress_any(b) for b in blocks]
                    with span("parallel.assemble", op=op):
                        recon = self.dec.assemble(parts)
                self.last[name] = result
                self.same_as_first_round(
                    rec, name, (os.path.getsize(path), zlib.crc32(recon))
                )

    def verify(self, rec: Recorder) -> dict[str, dict]:
        psnrs, deviations, stored = [], [], 0
        for name, result in self.last.items():
            key, data = rec.op_key(name), self.snap[name]
            loaded, _, _ = load_blocks(self.path(f"{name}.npz"))
            rec.check(key, same_payloads(result.blocks, loaded),
                      "container round trip changed payload bytes")
            parts = [decompress_any(b) for b in loaded]
            for bad in contract_violations(
                "abs", self.dec.partition_views(data), parts, result.ebs
            ):
                rec.fail(key, bad)
            quality = _field_quality(data, self.dec.assemble(parts))
            psnrs.append(quality[0])
            deviations.append(quality[1])
            stored += os.path.getsize(self.path(f"{name}.npz"))
        self.stored_bytes = stored
        return {
            "stored_ratio": metric(self.round_MB * MB / stored, "x"),
            "psnr_min_db": metric(min(psnrs), "dB"),
            "e2e.spectrum_dev_max": metric(max(deviations), "share"),
            "e2e.write_MBps": metric(self.round_MB / rec.round_seconds(("write",)), "MB/s"),
            "e2e.read_MBps": metric(self.round_MB / rec.round_seconds(("read",)), "MB/s"),
        }

    def per_layer(self, rec: Recorder, trace: Trace, rounds: int, run_s: float) -> dict:
        out = span_layer_metrics(trace, rounds, run_s)
        out.update(_setup_metrics(trace))
        blocks = [b for r in self.last.values() for b in r.blocks]
        out.update(_block_counts(blocks))
        payload = sum(b.nbytes for b in blocks)
        out["cli.container_bytes"] = metric(self.stored_bytes, "B")
        out["cli.container_overhead_pct"] = metric(
            100.0 * (self.stored_bytes - payload) / payload, "%"
        )
        _codec_rates(out, self.round_MB)
        floors, self.info["floors"] = compression_floors(
            self.snap.fields, self.dec, {n: r.ebs for n, r in self.last.items()}
        )
        out.update(floors)
        return out


# -- stream-64 -------------------------------------------------------------------


class Stream(Workload):
    name = "stream-64"
    round_phases = ("process",)
    op_phases = ("process",)

    @staticmethod
    def redshifts(p: dict) -> list[float]:
        return list(np.round(np.geomspace(p["z_first"], p["z_last"], p["snapshots"]), 3))

    def setup(self) -> None:
        self.seq = SnapshotSequence(self.snaps)
        raw = sum(a.nbytes for sn in self.snaps for a in sn.fields.values())
        self.round_MB = raw / MB
        self.budget = raw // self.p["budget_divisor"]
        self.signatures, self.reports, self.ledgers = {}, [], []
        warm = self.controller("warmup.jsonl", self.p["warmup_snapshots"])
        for snap in self.snaps[: self.p["warmup_snapshots"]]:
            warm.process_snapshot(snap)
        warm.finish()
        warm.close()

    def controller(self, ledger: str, n_snapshots: int, retain: bool = False):
        path = self.path(ledger)
        if os.path.exists(path):
            os.remove(path)  # a ledger file appends; every repetition starts fresh
        return InSituController(
            self.dec,
            field_specs={"baryon_density": FieldSpec(halo_aware=True)},
            candidates=list(self.p["candidates"]),
            ledger=path,
            byte_budget=self.budget * n_snapshots // len(self.seq),
            n_snapshots=n_snapshots,
            check_quality=True,
            retain_results=retain,
        )

    def round(self, rec: Recorder) -> None:
        """One repetition: a fresh controller and ledger over the whole stream."""
        ledger = f"ledger-{rec.round}.jsonl"
        ctl = self.controller(ledger, len(self.seq))
        for i, snap in enumerate(self.seq):
            op_class = f"snapshot{i:02d}"
            with rec.op(op_class) as op, rec.phase("process", op_class):
                with span("stream.process_snapshot", op=op, snapshot=i):
                    ctl.process_snapshot(snap)
        report = ctl.finish()
        ctl.close()
        with rec.op("replay") as op:
            with rec.phase("replay", "replay"), span("stream.replay", op=op):
                decisions = replay_ledger(self.path(ledger))
            live = [(o.snapshot_index, o.field, o.eb_avg) for o in report.outcomes]
            replayed = [(d.snapshot_index, d.field, d.eb_avg) for d in decisions]
            rec.check(rec.op_key("replay"), live == replayed,
                      "replayed decisions differ from the live ones")
        with open(self.path(ledger), "rb") as fh:
            self.same_as_first_round(rec, "replay", zlib.crc32(fh.read()))
        self.reports.append(report)
        self.ledgers.append(ledger)

    def verify(self, rec: Recorder) -> dict[str, dict]:
        """Re-run a prefix of the stream with results retained: its ledger
        must equal the timed ledger's prefix line for line, so the blocks
        it kept are the blocks the timed repetitions produced."""
        n = self.p["verify_snapshots"]
        ctl = self.controller("verify.jsonl", len(self.seq), retain=True)
        self.verified = [o for snap in self.seq.snapshots[:n]
                         for o in ctl.process_snapshot(snap)]
        ctl.close()
        with open(self.path("verify.jsonl")) as fh:
            prefix = fh.read().splitlines()
        with open(self.path(self.ledgers[-1])) as fh:
            timed = fh.read().splitlines()
        same_ledger = prefix == timed[: len(prefix)]
        psnrs = []
        for o in self.verified:
            key = rec.op_key(f"snapshot{o.snapshot_index:02d}")
            rec.check(key, same_ledger, "re-run ledger differs from the timed ledger")
            data = self.seq.snapshots[o.snapshot_index][o.field]
            parts = [decompress_any(b) for b in o.result.blocks]
            for bad in contract_violations(
                "abs", self.dec.partition_views(data), parts, o.result.ebs
            ):
                rec.fail(key, f"{o.field}: {bad}")
            psnrs.append(float(psnr(data.astype(np.float64), self.dec.assemble(parts))))
        report = self.reports[-1]
        return {
            "stored_ratio": metric(report.raw_bytes / report.compressed_bytes, "x"),
            "psnr_min_db": metric(min(psnrs), "dB"),
            "e2e.spectrum_dev_max": metric(
                max(o.quality_deviation for o in report.outcomes), "share"
            ),
            "e2e.budget_error_pct": metric(
                100.0 * abs(report.compressed_bytes / self.budget - 1.0), "%"
            ),
            "e2e.write_MBps": metric(
                self.round_MB / rec.round_seconds(("process",)), "MB/s"
            ),
        }

    def per_layer(self, rec: Recorder, trace: Trace, rounds: int, run_s: float) -> dict:
        report, ledger = self.reports[-1], self.path(self.ledgers[-1])
        events = RunLedger.load(ledger).events
        probes, per_round = self.probe(events)
        out = span_layer_metrics(trace, rounds, run_s, moves=[
            ("stream", "models", per_round["models.calibrate_self"]),
            ("stream", "core", per_round["core.select_self"]),
            ("stream", "foresight", per_round["foresight.reference_build_s"]),
            ("stream", "compression", per_round["compression.decompress_s"]),
            ("stream", "parallel", per_round["parallel.assemble_s"]),
            ("stream", "analysis",
             per_round["analysis.spectrum_s"] + per_round["analysis.error_summary_s"]),
        ], trial_layer="models")
        out.update(_setup_metrics(trace))
        for name in ("foresight.reference_build_s", "compression.decompress_s",
                     "parallel.assemble_s", "analysis.spectrum_s",
                     "analysis.error_summary_s", "stream.ledger_append_s"):
            out[name] = metric(per_round[name], "s")
        calibrations = [e for e in events if e.kind in ("calibration", "recalibration")]
        out["models.calibrate_s"] = metric(_span_seconds(probes, "models.calibrate"), "s")
        out["models.calibrate_calls"] = metric(len(calibrations), "count")
        out["models.probe_compressions"] = metric(
            _children(probes, "models.calibrate", "sz.map"), "count")
        out["models.rate_log_residual_p50"] = metric(
            statistics.median(abs(o.residual) for o in report.outcomes), "ln"
        )
        out["core.select_s"] = metric(_span_seconds(probes, "core.select"), "s")
        out["core.select_calls"] = metric(
            sum(1 for e in events if e.kind == "selection"), "count"
        )
        out["stream.controller_self_s"] = metric(
            max(out["stream.self_s"]["value"] - per_round["stream.ledger_append_s"], 0.0), "s"
        )
        out["stream.ledger_events"] = metric(len(events), "count")
        out["stream.ledger_bytes"] = metric(os.path.getsize(ledger), "B")
        out["stream.replay_events_per_s"] = metric(
            len(events) / out["stream.replay_s"]["value"], "1/s"
        )
        out["stream.recalibrations"] = metric(report.n_recalibrations, "count")
        out["stream.drift_fires"] = metric(
            sum(o.drift_signal is not None for o in report.outcomes), "count"
        )
        out["stream.governor_scale_max"] = metric(
            max(o.scale for o in report.outcomes), "x"
        )
        out["resilience.retries"] = metric(report.n_retries, "count")
        out["resilience.recoveries"] = metric(report.n_recoveries, "count")
        out["resilience.degradations"] = metric(report.n_degradations, "count")
        out.update(_block_counts([b for o in self.verified for b in o.result.blocks]))
        _codec_rates(out, self.round_MB)
        first = self.seq.snapshots[0]
        floors, self.info["floors"] = compression_floors(
            first.fields, self.dec,
            {o.field: o.result.ebs for o in self.verified if o.snapshot_index == 0},
        )
        out.update(floors)
        return out

    def probe(self, events) -> tuple[Trace, dict[str, float]]:
        """Direct calls, on the stream's own inputs, into the layers the
        controller reaches without a span: calibration and selection at
        every recorded (re)calibration, the quality check on the verified
        prefix (scaled to the whole stream), and the ledger appends."""
        probes = Trace()
        spec = {"baryon_density": FieldSpec(halo_aware=True)}
        with probes.window():
            for e in events:
                if e.kind not in ("calibration", "recalibration"):
                    continue
                data = self.seq.snapshots[e.data["snapshot"]][e.data["field"]]
                field_spec = spec.get(e.data["field"], FieldSpec())
                with span("foresight.reference_build", op="calibration"):
                    ref = FieldReference(data)
                    derive_eb_budget(field_spec, ref)
                    if field_spec.halo_aware:
                        derive_halo_params(field_spec, ref)
                with span("core.select", op="calibration"):
                    select_compressor(
                        data, self.dec, candidates=list(self.p["candidates"]),
                        field_spec=field_spec, field=e.data["field"],
                        eb_avg=e.data["eb_base"], require_error_bounded=True,
                        bank=RateModelBank(probe_mode="exact", max_partitions=24, seed=0),
                    )
                with span("models.calibrate", op="calibration"):
                    calibrate_rate_model(
                        self.dec.partition_views(data), compressor="sz",
                        eb_scale=e.data["eb_base"], max_partitions=24, seed=0,
                    )
            for o in self.verified:
                data = self.seq.snapshots[o.snapshot_index][o.field]
                with span("foresight.reference_build", op="quality"):
                    ref = FieldReference(data)
                    ref.spectrum(SPECTRUM_K_MAX - 1), ref.moments
                with span("compression.decompress", op="quality"):
                    parts = [decompress_any(b) for b in o.result.blocks]
                with span("parallel.assemble", op="quality"):
                    recon = self.dec.assemble(parts)
                with span("analysis.spectrum", op="quality"):
                    power_spectrum(recon, nbins=SPECTRUM_K_MAX - 1)
                with span("analysis.error_summary", op="quality"):
                    error_summary(ref.f64, recon, moments=ref.moments)
            scratch = RunLedger(self.path("probe-ledger.jsonl"))
            with span("stream.ledger_append", op="ledger"):
                for e in events:
                    scratch.append(e.kind, **e.data)
            scratch.close()
        probes.finish()
        # The quality check ran on the verified prefix only: scale it to the
        # whole stream.  Everything else was probed once per recorded event.
        scale = {"calibration": 1.0,
                 "quality": len(self.reports[-1].outcomes) / len(self.verified)}
        calibrate_self = _span_seconds(probes, "models.calibrate", self_time=True)
        select_self = _span_seconds(probes, "core.select", self_time=True)
        per_round = {
            "models.calibrate_self": calibrate_self,
            # selection calibrates its error-bounded candidate internally
            "core.select_self": max(select_self - calibrate_self, 0.0),
            "stream.ledger_append_s": _span_seconds(probes, "stream.ledger_append"),
        }
        for name in ("foresight.reference_build", "compression.decompress",
                     "parallel.assemble", "analysis.spectrum", "analysis.error_summary"):
            per_round[f"{name}_s"] = sum(
                scale[s["attrs"]["trace_id"]] * (s["end"] - s["start"])
                for s in probes.spans if s["name"] == name
            )
        return probes, per_round


# -- sweep-128 -------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep-128"
    round_phases = ("sweep",)
    op_phases = ("sweep",)
    MODES = (("exact", "never"), ("model", "boundary"))

    def setup(self) -> None:
        (self.snap,) = self.snaps
        self.fields = {f: self.snap[f] for f in self.p["fields"]}
        ladder = np.geomspace(self.p["bound_lo"], self.p["bound_hi"], self.p["bounds"])
        self.ebs, self.criteria = {}, {}
        for name, data in self.fields.items():
            scale = float(np.percentile(np.abs(data.astype(np.float64)),
                                        self.p["halo_percentile"]))
            self.ebs[name] = [float(x * scale) for x in ladder]
            self.criteria[name] = QualityCriteria()
        self.criteria["baryon_density"] = QualityCriteria(
            spectrum_tolerance=self.p["density_tolerance"], check_halos=True,
            t_boundary=float(np.percentile(
                self.fields["baryon_density"].astype(np.float64),
                self.p["halo_percentile"])),
        )
        self.cells = len(self.MODES) * len(self.fields) * self.p["bounds"]
        self.round_MB = len(self.MODES) * self.p["bounds"] * sum(
            a.nbytes for a in self.fields.values()) / MB
        self.signatures, self.records = {}, {}
        # Warm-up at full size (the spectrum bin caches are keyed by shape):
        # the first field at its tightest bound, both modes.
        name, data = next(iter(self.fields.items()))
        for mode, confirm in self.MODES:
            run_sweep({name: data}, self.ebs[name][:1], {name: self.criteria[name]},
                      decomposition=self.dec, probe_mode=mode, confirm=confirm)

    def round(self, rec: Recorder) -> None:
        for mode, confirm in self.MODES:
            for name, data in self.fields.items():
                op_class = f"{mode}:{name}"
                with rec.op(op_class) as op, rec.phase("sweep", op_class):
                    with span("foresight.run_sweep", op=op, mode=mode, field=name):
                        records = run_sweep(
                            {name: data}, self.ebs[name], {name: self.criteria[name]},
                            decomposition=self.dec, probe_mode=mode, confirm=confirm,
                        )
                    self.records[(mode, name)] = records
                self.same_as_first_round(rec, op_class, [
                    (r.eb, r.ratio, r.passed, r.quality.psnr_db,
                     r.quality.spectrum_worst_deviation) for r in records])

    def verify(self, rec: Recorder) -> dict[str, dict]:
        agree, accepted_psnr, accepted_dev, raw, stored = 0, [], [], 0.0, 0.0
        for name, data in self.fields.items():
            value_range = float(np.ptp(data.astype(np.float64)))
            exact, model = self.records[("exact", name)], self.records[("model", name)]
            for r, m in zip(exact, model):
                agree += r.passed == m.passed
                raw += data.nbytes
                stored += data.nbytes / r.ratio
                # max|err| <= eb bounds the RMSE, hence a PSNR floor.
                floor = 20.0 * np.log10(value_range / r.eb)
                rec.check(rec.op_key(f"exact:{name}"),
                          r.quality.psnr_db >= floor - 1e-6 and r.ratio > 1.0,
                          f"eb={r.eb:.4g}: PSNR {r.quality.psnr_db:.2f} dB under "
                          f"the bound's floor {floor:.2f} dB")
                if r.passed:
                    accepted_psnr.append(r.quality.psnr_db)
                    accepted_dev.append(r.quality.spectrum_worst_deviation)
        n = len(self.fields) * self.p["bounds"]
        self.mismatches = n - agree
        return {
            "stored_ratio": metric(raw / stored, "x"),
            "psnr_min_db": metric(min(accepted_psnr), "dB"),
            "e2e.spectrum_dev_max": metric(max(accepted_dev), "share"),
            "e2e.verdict_agreement_share": metric(agree / n, "share"),
            "e2e.cells_per_s": metric(
                self.cells / rec.round_seconds(("sweep",)), "1/s"
            ),
        }

    def per_layer(self, rec: Recorder, trace: Trace, rounds: int, run_s: float) -> dict:
        n_parts = len(self.dec)
        model_spans = {s["span_id"] for s in trace.spans
                       if s["name"] == "foresight.run_sweep" and s["attrs"]["mode"] == "model"}
        confirmed = sum(1 for s in trace.spans if s["name"] == "sz.map"
                        and s["parent_id"] in model_spans) / n_parts / rounds
        exact_cells = len(self.fields) * self.p["bounds"]
        probes, per_round = self.probe(1.0 + confirmed / exact_cells)
        out = span_layer_metrics(trace, rounds, run_s, moves=[
            ("foresight", layer, seconds) for layer, seconds in (
                ("compression", per_round["compression.decompress_s"]),
                ("parallel", per_round["parallel.assemble_s"]),
                ("analysis", per_round["analysis.spectrum_s"]
                 + per_round["analysis.halos_s"] + per_round["analysis.error_summary_s"]),
            )
        ])
        out.update(_setup_metrics(trace))
        for name, seconds in per_round.items():
            out[name] = metric(seconds, "s")
        out["foresight.evaluate_s"] = metric(
            max(out["foresight.self_s"]["value"] - per_round["foresight.reference_build_s"], 0.0), "s")
        counters = trace.counters
        hits = sum(v for k, v in counters.items()
                   if k.startswith("foresight.cache.") and k.endswith(".hits"))
        misses = sum(v for k, v in counters.items()
                     if k.startswith("foresight.cache.") and k.endswith(".misses"))
        out["foresight.cache_hit_share"] = metric(hits / (hits + misses), "share")
        out["foresight.confirmed_cells"] = metric(confirmed, "count")
        out["foresight.verdict_mismatches"] = metric(self.mismatches, "count")
        out["analysis.halo_cells"] = metric(self.halo_cells, "count")
        field_MB = sum(a.nbytes for a in self.fields.values()) / MB
        _codec_rates(out, field_MB * self.p["bounds"] * (1.0 + confirmed / exact_cells))
        out.update(_block_counts(self.probe_blocks))
        floors, self.info["floors"] = compression_floors(
            self.fields, self.dec,
            {n: [self.ebs[n][0]] * n_parts for n in self.fields})
        out.update(floors)
        return out

    def probe(self, cell_scale: float) -> tuple[Trace, dict[str, float]]:
        """Repeat the exact pass by hand through the public analysis
        functions, one span per layer, to split ``run_sweep``'s self time.
        ``cell_scale`` adds the cells the model pass confirmed exactly."""
        probes = Trace()
        comp = resolve_compressor("sz")
        nbins = SPECTRUM_K_MAX - 1
        self.probe_blocks = []
        with probes.window():
            for name, data in self.fields.items():
                crit = self.criteria[name]
                with span("foresight.reference_build", op="reference"):
                    ref = FieldReference(data)
                    ref.spectrum(nbins), ref.moments
                    if crit.check_halos:
                        self.halo_cells = ref.halos(crit.t_boundary).n_candidate_cells
                views = self.dec.partition_views(data)
                for eb in self.ebs[name]:
                    blocks = comp.compress_many(views, [eb] * len(views))
                    self.probe_blocks += blocks
                    with span("compression.decompress", op="cell"):
                        parts = [decompress_any(b) for b in blocks]
                    with span("parallel.assemble", op="cell"):
                        recon = self.dec.assemble(parts)
                    with span("analysis.spectrum", op="cell"):
                        power_spectrum(recon, nbins=nbins)
                    if crit.check_halos:
                        with span("analysis.halos", op="cell"):
                            find_halos(recon, crit.t_boundary)
                    with span("analysis.error_summary", op="cell"):
                        error_summary(ref.f64, recon, moments=ref.moments)
        probes.finish()
        per_round = {
            f"{name}_s": cell_scale * _span_seconds(probes, name)
            for name in ("compression.decompress", "parallel.assemble",
                         "analysis.spectrum", "analysis.halos", "analysis.error_summary")
        }
        per_round["foresight.reference_build_s"] = _span_seconds(
            probes, "foresight.reference_build")
        return probes, per_round


# -- family-matrix-96 --------------------------------------------------------------


class FamilyMatrix(Workload):
    name = "family-matrix-96"
    round_phases = ("write", "read")
    op_phases = ("write", "read")

    def setup(self) -> None:
        (snap,) = self.snaps
        n = len(self.dec)
        self.ops, self.signatures, self.last = {}, {}, {}
        for label, (spec, dtype, kind) in FAMILY_CONFIGS.items():
            comp = resolve_compressor(spec)
            for name in self.p["fields"]:
                data = np.ascontiguousarray(snap[name], dtype=dtype)
                if kind == "pw_rel":
                    if data.min() <= 0:
                        continue  # pw_rel is defined on strictly positive fields
                    bound = self.p["pw_rel_bound"]
                else:
                    bound = float(data.std(dtype=np.float64)) * self.p["eb_rel_std"]
                self.ops[f"{label}:{name}"] = (comp, data, [bound] * n, kind)
        self.round_MB = sum(op[1].nbytes for op in self.ops.values()) / MB
        first = self.p["fields"][0]
        self.round(Recorder(), only=[c for c in self.ops if c.endswith(first)])  # warm-up

    def round(self, rec: Recorder, only=None) -> None:
        for op_class in only or self.ops:
            comp, data, bounds, _ = self.ops[op_class]
            path = self.path(op_class.replace(":", "-") + ".npz")
            with rec.op(op_class) as op:
                with rec.phase("write", op_class):
                    with span("parallel.partition_views", op=op):
                        views = self.dec.partition_views(data)
                    with span("compression.compress", op=op, config=op_class):
                        blocks = comp.compress_many(views, bounds)
                    in_container = isinstance(blocks[0], CompressedBlock)
                    if in_container:  # the .npz container stores SZ-family blocks only
                        with span("cli.save_blocks", op=op):
                            save_blocks(path, blocks, np.asarray(bounds), self.dec.blocks[0])
                with rec.phase("read", op_class):
                    loaded = blocks
                    if in_container:
                        with span("cli.load_blocks", op=op):
                            loaded, _, _ = load_blocks(path)
                    with span("compression.decompress", op=op):
                        parts = [decompress_any(b) for b in loaded]
                    with span("parallel.assemble", op=op):
                        recon = self.dec.assemble(parts)
                stored = os.path.getsize(path) if in_container else sum(b.nbytes for b in blocks)
                self.last[op_class] = (blocks, loaded, stored, in_container)
                self.same_as_first_round(rec, op_class, (stored, zlib.crc32(recon)))

    def verify(self, rec: Recorder) -> dict[str, dict]:
        psnrs, deviations, raw, stored_total = [], [], 0, 0
        for op_class, (blocks, loaded, stored, in_container) in self.last.items():
            _, data, bounds, kind = self.ops[op_class]
            key = rec.op_key(op_class)
            if in_container:
                rec.check(key, same_payloads(blocks, loaded),
                          "container round trip changed payload bytes")
            parts = [decompress_any(b) for b in loaded]
            for bad in contract_violations(
                kind, self.dec.partition_views(data), parts, bounds, blocks=blocks
            ):
                rec.fail(key, bad)
            quality = _field_quality(data, self.dec.assemble(parts))
            psnrs.append(quality[0])
            if kind == "abs":
                deviations.append(quality[1])
            raw += data.nbytes
            stored_total += stored
        return {
            "stored_ratio": metric(raw / stored_total, "x"),
            "psnr_min_db": metric(min(psnrs), "dB"),
            "e2e.spectrum_dev_max": metric(max(deviations), "share"),
            "e2e.write_MBps": metric(self.round_MB / rec.round_seconds(("write",)), "MB/s"),
            "e2e.read_MBps": metric(self.round_MB / rec.round_seconds(("read",)), "MB/s"),
        }

    def per_layer(self, rec: Recorder, trace: Trace, rounds: int, run_s: float) -> dict:
        out = span_layer_metrics(trace, rounds, run_s)
        out.update(_setup_metrics(trace))
        out.update(_block_counts([b for last in self.last.values() for b in last[0]]))
        contained = [last for last in self.last.values() if last[3]]
        payload = sum(b.nbytes for last in contained for b in last[0])
        container = sum(last[2] for last in contained)
        out["cli.container_bytes"] = metric(container, "B")
        out["cli.container_overhead_pct"] = metric(100.0 * (container - payload) / payload, "%")
        _codec_rates(out, self.round_MB)
        fields = {c.split(":")[1]: op[1] for c, op in self.ops.items() if c.startswith("sz-f32:")}
        floors, self.info["floors"] = compression_floors(
            fields, self.dec,
            {c.split(":")[1]: op[2] for c, op in self.ops.items() if c.startswith("sz-f32:")})
        out.update(floors)
        return out


WORKLOADS = {w.name: w for w in (Snapshot, Stream, Sweep, FamilyMatrix)}
