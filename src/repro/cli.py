"""Command-line interface: generate, compress, analyze, report.

A small operational layer over the library for shell-driven workflows::

    python -m repro.cli generate --shape 64 --redshift 0.5 --out snap.npz
    python -m repro.cli compress --snapshot snap.npz --field temperature \
        --blocks 4 --eb-avg 500 --out blocks.npz
    python -m repro.cli analyze --snapshot snap.npz --field temperature \
        --compressed blocks.npz
    python -m repro.cli sweep --snapshot snap.npz --field baryon_density \
        --ebs 0.1,0.2,0.4
    python -m repro.cli generate --shape 32 --redshifts 4,2,1,0.5 --out run/
    python -m repro.cli stream --dir run/ --budget-bytes 2000000 \
        --ledger run.jsonl
    python -m repro.cli stream --replay run.jsonl
    python -m repro.cli list-compressors
    python -m repro.cli sweep --snapshot snap.npz --field temperature \
        --ebs 100,200 --compressor sz --compressor zfp_like:rate=8

Compressors are named by registry specs ``family[:key=value,...]``
(``list-compressors`` shows the families).  SZ's *entropy* stage
(zlib/huffman/raw) is one parameter of the ``sz`` family, not a
compressor family: ``--compressor sz:codec=huffman``.

``compress`` writes, and ``analyze`` reads, the ``.npz`` block
container of :mod:`repro.compression.container` (its ``save_blocks`` /
``load_blocks`` are re-exported here).  A name given to ``generate`` or
``compress`` reads back as it was given (``--out c`` writes ``c.npz``,
which ``--compressed c`` opens); a missing or damaged input is one
``<command>: ...`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.compression.api import (
    REGISTRY,
    CompressorSpec,
    UnsupportedCapabilityError,
)
from repro.compression.container import load_blocks, load_field, save_blocks
from repro.compression.sz import CompressedBlock
from repro.core.pipeline import AdaptiveCompressionPipeline
from repro.models.calibration import PROBE_MODES, calibrate_rate_model
from repro.parallel.decomposition import BlockDecomposition
from repro.resilience.retry import RetryExhaustedError
from repro.sim.io import load_snapshot, save_snapshot
from repro.sim.nyx import NyxSimulator
from repro.telemetry.report import BASE_PHASE, OVERHEAD_PHASES, overhead_summary
from repro.util.errors import PayloadError
from repro.util.tables import format_table

__all__ = ["main", "save_blocks", "load_blocks"]


def _cmd_generate(args: argparse.Namespace) -> int:
    sim = NyxSimulator(
        shape=(args.shape,) * 3, box_size=float(args.shape), seed=args.seed
    )
    if args.redshifts is not None:
        # Snapshot sequence mode: --out names a directory; the zero-padded
        # index prefix keeps the schedule order under DirectoryStream's
        # sorted-filename replay.
        schedule = [float(z) for z in args.redshifts.split(",")]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stale = sorted(out_dir.glob("snapshot_*.npz"))
        if stale:
            # A shorter schedule would overwrite a prefix and leave the
            # tail behind; DirectoryStream would then silently mix two
            # schedules into one stream.
            print(
                f"refusing to write into {out_dir}: {len(stale)} snapshot "
                "file(s) already present (remove them or use a fresh "
                "directory)",
                file=sys.stderr,
            )
            return 1
        for i, z in enumerate(schedule):
            path = out_dir / f"snapshot_{i:04d}.npz"
            save_snapshot(sim.snapshot(z=z), path)
            print(f"wrote {path}: z={z:g}")
        print(f"wrote {len(schedule)} snapshots to {out_dir}")
        return 0
    snap = sim.snapshot(z=args.redshift)
    path = save_snapshot(snap, args.out)
    print(f"wrote {path}: shape {snap.shape}, z={snap.redshift}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    snap = load_snapshot(args.snapshot)
    data = snap[args.field]
    dec = BlockDecomposition(data.shape, blocks=args.blocks)
    eb_avg = args.eb_avg
    if eb_avg is None:
        eb_avg = float(np.ptp(data.astype(np.float64))) * 3e-3
    spec = CompressorSpec.parse(args.compressor or "sz")
    if spec.family in REGISTRY and not issubclass(
        REGISTRY.block_type(spec.family), CompressedBlock
    ):
        # Fail before calibrating/compressing anything: the .npz block
        # container only stores SZ-family blocks.
        print(
            f"compress: the .npz block container stores SZ-family blocks "
            f"only; {spec.label} produces "
            f"{REGISTRY.block_type(spec.family).__name__} streams (use the "
            "library API to handle them)",
            file=sys.stderr,
        )
        return 2
    try:
        compressor = REGISTRY.create(spec)
        cal = calibrate_rate_model(
            dec.partition_views(data),
            compressor=compressor,
            eb_scale=eb_avg,
            seed=0,
            probe_mode=args.probe_mode,
        )
    except ValueError as exc:
        print(f"compress: {exc}", file=sys.stderr)
        return 2
    pipe = AdaptiveCompressionPipeline(cal.rate_model, compressor=compressor)
    # The run's spans are its timings: those of the --telemetry trace, or
    # of a tracer armed for the run alone.
    tracer = telemetry.get_tracer()
    with nullcontext(tracer) if tracer.enabled else telemetry.armed() as tracer:
        result = pipe.run(data, dec, eb_avg=eb_avg)
    path = save_blocks(args.out, result.blocks, result.ebs, args.blocks)
    totals = overhead_summary(tracer.export_spans())
    phases = " ".join(f"{p}={totals[p]:.3f}s" for p in (*OVERHEAD_PHASES, BASE_PHASE))
    print(
        f"wrote {path}: {dec.n_partitions} partitions, "
        f"ratio {result.overall_ratio:.2f}x, bit rate {result.overall_bit_rate:.3f}, "
        f"bounds {result.ebs.min():.4g}..{result.ebs.max():.4g}"
    )
    print(f"timings: {phases}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import nrmse, psnr
    from repro.analysis.spectrum import check_spectrum_quality

    snap = load_snapshot(args.snapshot)
    data = snap[args.field].astype(np.float64)
    # Each block decodes straight into its partition of one field buffer;
    # a damaged container, or blocks that do not tile the snapshot, is a
    # PayloadError that main turns into one line.
    recon = load_field(args.compressed, out=np.empty(data.shape))
    _, ebs, _ = load_blocks(args.compressed)  # the bounds, for the table
    ok, dev = check_spectrum_quality(data, recon, tolerance=args.tolerance)
    rows = [
        ["max abs error", float(np.max(np.abs(recon - data)))],
        ["largest bound", float(ebs.max())],
        ["PSNR (dB)", psnr(data, recon)],
        ["NRMSE", nrmse(data, recon)],
        ["P(k) worst deviation (k<10)", dev],
        ["P(k) within band", "yes" if ok else "NO"],
    ]
    print(format_table(["metric", "value"], rows, title=f"analysis: {args.field}"))
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.foresight import QualityCriteria, records_to_table, run_sweep

    snap = load_snapshot(args.snapshot)
    data = snap[args.field]
    dec = BlockDecomposition(data.shape, blocks=args.blocks)
    ebs = [float(e) for e in args.ebs.split(",")]
    specs = [CompressorSpec.parse(c) for c in (args.compressor or [])]
    single = specs[0] if len(specs) == 1 else None
    records = run_sweep(
        {args.field: data},
        ebs,
        {args.field: QualityCriteria(spectrum_tolerance=args.tolerance)},
        decomposition=dec,
        compressor=single,
        compressors=specs if len(specs) > 1 else None,
        rate_only=args.rate_only,
        probe_mode=args.probe_mode,
    )
    print(records_to_table(records, title=f"sweep: {args.field}"))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.config import FieldSpec
    from repro.resilience import RetryPolicy
    from repro.stream import (
        DirectoryStream,
        DriftConfig,
        InSituController,
        RunLedger,
        SimulatorStream,
        replay_ledger,
    )

    if args.replay is not None:
        # recover=True tolerates (and reports) a torn final line without
        # modifying the file — replaying a crashed run's ledger works.
        source = RunLedger.load(args.replay, recover=True)
        if source.recovered_tail is not None:
            tail = source.recovered_tail
            print(
                f"torn final line ignored: {tail['truncated_bytes']} bytes "
                f"after byte offset {tail['valid_bytes']} "
                f"({tail['valid_events']} valid events kept)"
            )
        decisions = replay_ledger(source)
        rows = [
            [d.snapshot_index, d.redshift, d.field, d.eb_avg, min(d.ebs), max(d.ebs)]
            for d in decisions
        ]
        print(
            format_table(
                ["snap", "z", "field", "eb_avg", "eb_min", "eb_max"],
                rows,
                title=f"replayed ledger: {args.replay}",
            )
        )
        print(
            f"replay verified: {len(decisions)} decisions reproduced from "
            "the ledger alone (no field data read)"
        )
        return 0

    retry = (
        None
        if args.max_retries is None
        else RetryPolicy(max_attempts=args.max_retries)
    )
    fields = args.fields.split(",") if args.fields else None
    if args.simulate:
        sim = NyxSimulator(
            shape=(args.shape,) * 3, box_size=float(args.shape), seed=args.seed
        )
        schedule = [float(z) for z in args.redshifts.split(",")]
        stream = SimulatorStream(sim, schedule, fields=fields)
        shape = sim.shape
    elif args.dir is not None:
        stream = DirectoryStream(args.dir, fields=fields, retry=retry)
        shape = stream.shape
    else:
        print("stream: need a source (--dir or --simulate) or --replay", file=sys.stderr)
        return 2

    if args.resume and not args.ledger:
        print("stream: --resume requires --ledger", file=sys.stderr)
        return 2
    try:
        if args.resume:
            # Run settings (drift, budget, compressor, candidates, ...) come
            # from the ledger's run_start event, not from the flags above;
            # only process-local choices are taken from the command line.
            controller = InSituController.resume(
                args.ledger,
                default_spec=FieldSpec(spectrum_tolerance=args.tolerance),
                retry=retry,
                fallback_compressor=args.fallback_compressor,
                fsync_ledger=args.fsync_ledger,
                retain_results=False,
            )
            done = controller.report.n_snapshots
            print(f"resuming at snapshot {done}/{len(stream)} (ledger: {args.ledger})")
        else:
            specs = [CompressorSpec.parse(c) for c in (args.compressor or [])]
            controller = InSituController(
                BlockDecomposition(shape, blocks=args.blocks),
                compressor=specs[0] if len(specs) == 1 else None,
                candidates=specs if len(specs) > 1 else None,
                ledger=args.ledger,
                byte_budget=args.budget_bytes,
                drift=DriftConfig(
                    z_threshold=args.z_threshold,
                    window=args.drift_window,
                    min_points=args.drift_min_points,
                ),
                recalibrate=args.recalibrate,
                probe_mode=args.probe_mode,
                default_spec=FieldSpec(spectrum_tolerance=args.tolerance),
                retain_results=False,  # stream accounting only: O(1) memory
                retry=retry,
                fallback_compressor=args.fallback_compressor,
                fsync_ledger=args.fsync_ledger,
            )
        with controller:
            report = controller.run(stream)
    except ValueError as exc:
        # A setting the controller refuses (a non-positive byte budget, a
        # ledger with no run to resume), or a candidate slate with no
        # eligible member for some field.
        print(f"stream: {exc}", file=sys.stderr)
        return 2
    print(report.to_table(title=f"stream: {len(stream)} snapshots"))
    if controller.selections:
        for name, sel in controller.selections.items():
            rejected = "; ".join(
                f"{v.spec.label}: {v.reason}" for v in sel.rejected
            )
            line = f"selected {sel.chosen.label} for {name}"
            print(line + (f" ({rejected})" if rejected else ""))
    print(
        f"total {report.compressed_bytes} bytes "
        f"({report.overall_ratio:.2f}x vs raw), "
        f"{report.n_recalibrations} recalibration(s)"
    )
    if report.byte_budget is not None:
        print(
            f"budget {report.byte_budget} bytes: "
            f"{100.0 * report.budget_utilization:.1f}% used"
        )
    if report.n_retries or report.n_recoveries or report.n_degradations:
        degraded = (
            f" (degraded: {','.join(report.degraded_fields)})"
            if report.degraded_fields
            else ""
        )
        print(
            f"resilience: {report.n_retries} retrie(s), "
            f"{report.n_recoveries} ledger recover(ies), "
            f"{report.n_degradations} degradation(s){degraded}"
        )
    if args.ledger:
        print(f"ledger: {args.ledger} ({len(controller.ledger)} events)")
    return 0


def _cmd_list_compressors(args: argparse.Namespace) -> int:
    default_family = REGISTRY.default().family
    flag_names = ("error_bounded", "fixed_rate", "supports_estimate")
    rows = []
    for family in REGISTRY.families():
        caps = REGISTRY.capabilities(family)
        flags = ",".join(n for n in flag_names if getattr(caps, n)) or "-"
        defaults = (
            ",".join(f"{k}={v}" for k, v in sorted(REGISTRY.defaults(family).items()))
            or "-"
        )
        name = family + (" *" if family == default_family else "")
        rows.append([name, flags, defaults, REGISTRY.describe(family)])
    print(
        format_table(
            ["family", "capabilities", "defaults", "description"],
            rows,
            title="registered compressor families (* = default)",
        )
    )
    print(
        "spec grammar: family[:key=value,...], e.g. sz:codec=huffman or "
        "zfp_like:rate=8 (note: 'codec' is SZ's entropy stage, not a family)"
    )
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.telemetry.export import load_spans
    from repro.telemetry.report import render_trace_report

    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError) as exc:
        print(f"trace-report: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(render_trace_report(spans))
    return 0


@contextmanager
def _telemetry_sink(path: str | None):
    """Arm telemetry for one command and export the trace at the end.

    The export format follows the suffix (``.trace.json``/``.chrome.json``
    → Chrome trace, ``.prom``/``.txt`` → Prometheus text, else canonical
    JSONL); the trace is written even when the command fails, so crashed
    runs keep their spans for post-mortems.
    """
    if path is None:
        yield
        return
    from repro.telemetry.export import write_export

    with telemetry.armed() as tracer:
        try:
            yield
        finally:
            fmt = write_export(
                path, tracer.export_spans(), telemetry.get_registry().snapshot()
            )
            print(f"telemetry: wrote {fmt} trace to {path}")


def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="arm tracing/metrics for this command and write the trace to "
        "PATH on exit (suffix selects the format: .trace.json/.chrome.json "
        "for a Perfetto-loadable Chrome trace, .prom/.txt for Prometheus "
        "text, anything else for canonical JSON lines); telemetry is "
        "out-of-band — ledgers and outputs are byte-identical either way",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Adaptive in situ lossy compression toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a Nyx-like snapshot")
    g.add_argument("--shape", type=int, default=64)
    g.add_argument("--redshift", type=float, default=0.5)
    g.add_argument(
        "--redshifts",
        default=None,
        help="comma-separated dump schedule; --out then names a directory "
        "receiving one snapshot_NNNN.npz per redshift (a stream source)",
    )
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_generate)

    c = sub.add_parser("compress", help="adaptively compress one field")
    c.add_argument("--snapshot", required=True)
    c.add_argument("--field", required=True)
    c.add_argument("--blocks", type=int, default=4)
    c.add_argument("--eb-avg", type=float, default=None)
    c.add_argument(
        "--compressor",
        default=None,
        help="compressor family spec, family[:key=value,...] (see the "
        "list-compressors subcommand); default sz",
    )
    c.add_argument(
        "--probe-mode",
        default="exact",
        choices=PROBE_MODES,
        help="rate-model calibration probes: run the full codec (exact) or "
        "read rates off the quantization-code histogram, codec-free (model)",
    )
    c.add_argument("--out", required=True)
    _add_telemetry_flag(c)
    c.set_defaults(fn=_cmd_compress)

    a = sub.add_parser("analyze", help="verify a compressed field")
    a.add_argument("--snapshot", required=True)
    a.add_argument("--field", required=True)
    a.add_argument("--compressed", required=True)
    a.add_argument("--tolerance", type=float, default=0.01)
    a.set_defaults(fn=_cmd_analyze)

    s = sub.add_parser("sweep", help="trial-and-error sweep over bounds")
    s.add_argument("--snapshot", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--blocks", type=int, default=4)
    s.add_argument("--ebs", required=True, help="comma-separated error bounds")
    s.add_argument(
        "--compressor",
        action="append",
        default=None,
        help="compressor spec family[:key=value,...]; repeat the flag to "
        "fan the sweep over several families (records then carry the "
        "spec per row)",
    )
    s.add_argument("--tolerance", type=float, default=0.01)
    s.add_argument(
        "--rate-only",
        action="store_true",
        help="read rates alone: no quality evaluation, records carry no "
        "quality (rate curves only)",
    )
    s.add_argument(
        "--probe-mode",
        default="exact",
        choices=PROBE_MODES,
        help="run the full codec per cell (exact), or predict rate AND "
        "quality from one quantization probe with the ratio-quality model "
        "(model; add --rate-only to read rates alone)",
    )
    _add_telemetry_flag(s)
    s.set_defaults(fn=_cmd_sweep)

    st = sub.add_parser(
        "stream",
        help="run the online in-situ streaming controller over a snapshot "
        "sequence (or replay a run ledger)",
    )
    st.add_argument(
        "--dir", default=None, help="directory of snapshot .npz files (sorted order)"
    )
    st.add_argument(
        "--simulate",
        action="store_true",
        help="stream snapshots straight from the Nyx-like simulator",
    )
    st.add_argument("--shape", type=int, default=32, help="grid size (--simulate)")
    st.add_argument("--seed", type=int, default=42, help="simulator seed (--simulate)")
    st.add_argument(
        "--redshifts",
        default="4.0,3.0,2.0,1.5,1.0,0.7,0.5,0.3",
        help="comma-separated dump schedule (--simulate)",
    )
    st.add_argument("--fields", default=None, help="comma-separated field subset")
    st.add_argument(
        "--compressor",
        action="append",
        default=None,
        help="compressor spec family[:key=value,...]; one flag pins every "
        "field to that configuration, repeating it builds a candidate "
        "slate from which each field's compressor is *selected* at "
        "calibration time by predicted rate (every verdict is recorded in "
        "the ledger)",
    )
    st.add_argument("--blocks", type=int, default=4)
    st.add_argument(
        "--probe-mode",
        default="exact",
        choices=PROBE_MODES,
        help="rate-model (re)calibration probes: the full codec (exact), or "
        "the codec-free quantization-code histogram (model)",
    )
    st.add_argument(
        "--budget-bytes",
        type=int,
        default=None,
        help="total-run compressed-byte budget enforced by the governor",
    )
    st.add_argument("--tolerance", type=float, default=0.01, help="P(k) tolerance")
    st.add_argument(
        "--z-threshold",
        type=float,
        default=4.0,
        help="standardized-residual threshold triggering recalibration",
    )
    st.add_argument("--drift-window", type=int, default=4)
    st.add_argument("--drift-min-points", type=int, default=2)
    st.add_argument(
        "--recalibrate",
        default="drift",
        choices=["drift", "always"],
        help="refit models only on drift (default) or on every snapshot",
    )
    st.add_argument(
        "--ledger", default=None, help="append-only JSONL run ledger to write"
    )
    st.add_argument(
        "--replay",
        default=None,
        help="replay+verify an existing ledger instead of streaming "
        "(reads no field data; tolerates and reports a torn final line)",
    )
    st.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from --ledger: a torn final line "
        "is truncated, completed snapshots are skipped, and the rest of "
        "the stream produces decisions identical to an uninterrupted run",
    )
    st.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry transient failures (compression crashes, snapshot-load "
        "errors, ledger-append errors) up to N attempts per site with "
        "exponential backoff; default is fail-fast",
    )
    st.add_argument(
        "--fallback-compressor",
        default=None,
        help="compressor spec a field degrades to when its retries are "
        "exhausted (the field is quarantined onto it and the stream "
        "continues); default is to abort the run",
    )
    st.add_argument(
        "--fsync-ledger",
        action="store_true",
        help="fsync every ledger append (crash-safety against power loss, "
        "one disk sync per event)",
    )
    _add_telemetry_flag(st)
    st.set_defaults(fn=_cmd_stream)

    tr = sub.add_parser(
        "trace-report",
        help="render per-stage/per-field summaries and the paper's §4.3 "
        "overhead ratio from a --telemetry trace file",
    )
    tr.add_argument("trace", help="trace file (JSONL or Chrome trace) to summarize")
    tr.set_defaults(fn=_cmd_trace_report)

    lc = sub.add_parser(
        "list-compressors",
        help="list registered compressor families, capabilities and defaults",
    )
    lc.set_defaults(fn=_cmd_list_compressors)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _telemetry_sink(getattr(args, "telemetry", None)):
        try:
            return args.fn(args)
        # A missing or damaged input (retried or not: a dump whose copy
        # never finished), or a compressor the command cannot use.
        except (
            FileNotFoundError,
            PayloadError,
            RetryExhaustedError,
            UnsupportedCapabilityError,
        ) as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
