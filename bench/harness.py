"""What every workload shares: the op recorder, span bookkeeping, the
compressor-contract checks, the roofline floors and run provenance.

The harness stays outside the program: it times calls with its own clock,
opens its own spans around each call into a layer (through the program's
public ``repro.telemetry`` tracer, so program spans nest under them), and
reads the program's existing spans and counters as they are.
"""

from __future__ import annotations

import datetime
import os
import platform
import statistics
import subprocess
import sys
import traceback
import zlib
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from repro import telemetry
from repro.compression.api import resolve_compressor
from repro.compression.kernels import available_kernels, get_kernels
from repro.telemetry.report import overhead_summary

from bench import ROOT

SCHEMA_VERSION = 1
MB = 1e6  # raw field bytes per "MB" in every MB/s figure

#: Layers (module names under ``repro``) that run-time self time is booked to.
RUN_LAYERS = (
    "parallel", "core", "models", "compression", "cli", "analysis",
    "foresight", "stream",
)

#: Program spans that do not carry their layer in their name.
_PROGRAM_SPAN_LAYER = {
    "backend.snapshot": "parallel",
    "scatter": "parallel",
    "features": "core",
    "optimize": "core",
    "compress": "compression",
    "rq.probe": "models",
    "stream.field": "stream",
}

#: Per-layer metrics that are one span's duration ("dur") or self time
#: ("self") per armed round.
_SPAN_METRICS = {
    "parallel.partition_views_s": ("parallel.partition_views", "dur"),
    "parallel.assemble_s": ("parallel.assemble", "dur"),
    "parallel.backend_snapshot_s": ("backend.snapshot", "dur"),
    "parallel.backend_self_s": ("backend.snapshot", "self"),
    "core.features_s": ("features", "dur"),
    "core.optimize_s": ("optimize", "dur"),
    "models.rq_probe_s": ("rq.probe", "dur"),
    "compression.decompress_s": ("compression.decompress", "dur"),
    "compression.sz.map_s": ("sz.map", "dur"),
    "compression.sz.quantize_s": ("sz.quantize", "dur"),
    "compression.sz.lorenzo_s": ("sz.lorenzo", "dur"),
    "compression.sz.residual_s": ("sz.residual", "dur"),
    "compression.sz.entropy_s": ("sz.entropy", "dur"),
    "compression.sz.side_channels_s": ("sz.side_channels", "dur"),
    "cli.save_blocks_s": ("cli.save_blocks", "dur"),
    "cli.load_blocks_s": ("cli.load_blocks", "dur"),
    "stream.replay_s": ("stream.replay", "dur"),
}

#: Spans that wrap a whole ``compress_many``; ``sz.*`` spans outside them
#: (calibration probes, sweep cells) are counted as compression on their own.
_COMPRESS_SPANS = ("compress", "compression.compress")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def span(name: str, **attrs):
    """A harness span; the shared null span when telemetry is disarmed."""
    return telemetry.get_tracer().span(name, **attrs)


# -- ops: attempts, failures and timings --------------------------------------


class Recorder:
    """Times the phases of each op from outside and counts failed ops.

    An op class is one kind of unit work that repeats every round (a field,
    a snapshot position, a ``(config, field)`` pair); every round adds one
    sample per ``(phase, op class)``, so metrics can take medians per class
    and stay comparable when the number of rounds changes.
    """

    def __init__(self) -> None:
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}
        self.round = 0
        self._ops = 0

    def op_key(self, op_class: str) -> str:
        return f"round{self.round}:{op_class}"

    @contextmanager
    def op(self, op_class: str):
        """One attempted op; yields its trace id.  An exception fails the op
        and the run goes on, so one bad op cannot hide the rest."""
        self.attempted += 1
        self._ops += 1
        try:
            yield self._ops
        except Exception:  # the boundary that keeps the benchmark running
            self.fail(self.op_key(op_class), traceback.format_exc(limit=4))

    @contextmanager
    def phase(self, phase: str, op_class: str):
        start = perf_counter()
        yield
        self.samples[(phase, op_class)].append(perf_counter() - start)

    def fail(self, op_key: str, why: str) -> None:
        self.failed.setdefault(op_key, []).append(why)

    def check(self, op_key: str, ok: bool, why: str) -> None:
        if not ok:
            self.fail(op_key, why)

    # -- reading the samples ----------------------------------------------

    def class_medians(self, phases: tuple[str, ...]) -> dict[str, float]:
        """Median seconds per op class, phases of one op summed per round."""
        per_class: dict[str, list[list[float]]] = defaultdict(list)
        for (phase, op_class), values in self.samples.items():
            if phase in phases:
                per_class[op_class].append(values)
        return {
            op_class: statistics.median(sum(parts) for parts in zip(*lists))
            for op_class, lists in per_class.items()
        }

    def round_seconds(self, phases: tuple[str, ...]) -> float:
        """Seconds one full round takes: the sum of the class medians."""
        return sum(self.class_medians(phases).values())

    def total_seconds(self) -> float:
        return sum(sum(values) for values in self.samples.values())

    def latency_metrics(self, phases: tuple[str, ...]) -> dict[str, dict]:
        """``op_p50_ms`` over the class medians and ``e2e.op_tail_ms``, the
        slowest class's median — a run holds too few ops for a pooled
        percentile with ten samples beyond it (see the README)."""
        medians = self.class_medians(phases)
        return {
            "op_p50_ms": metric(1e3 * statistics.median(medians.values()), "ms"),
            "e2e.op_tail_ms": metric(1e3 * max(medians.values()), "ms"),
        }


# -- spans ------------------------------------------------------------------


class Trace:
    """Spans of every armed window of one pass, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        telemetry.get_registry().reset()

    @contextmanager
    def window(self):
        """Arm telemetry for one stretch of work and keep its spans.  Each
        window gets a fresh program tracer, so ids are re-based to stay
        unique across windows."""
        with telemetry.armed(reset_metrics=False) as tracer:
            try:
                yield
            finally:
                records = tracer.export_spans()
                base = len(self.spans)
                new_id = {r["span_id"]: base + i for i, r in enumerate(records)}
                for rec in records:
                    rec["span_id"] = new_id[rec["span_id"]]
                    rec["parent_id"] = new_id.get(rec["parent_id"])
                self.spans.extend(records)

    def finish(self) -> None:
        """Stamp every span with its op's trace id and its self time, and
        keep the counters as they stand (a later ``Trace`` resets them)."""
        self.counters = {
            m["name"]: m["value"]
            for m in telemetry.get_registry().snapshot()
            if m["kind"] == "counter"
        }
        by_id = {s["span_id"]: s for s in self.spans}
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent_id"] is not None:
                children[s["parent_id"]].append(s)
        for s in self.spans:
            root = s
            while root["parent_id"] is not None:
                root = by_id[root["parent_id"]]
            s["attrs"]["trace_id"] = root["attrs"].get("op", "untracked")
            covered, reach = 0.0, s["start"]
            for child in sorted(children[s["span_id"]], key=lambda c: c["start"]):
                lo, hi = max(child["start"], reach), min(child["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            s["attrs"]["self_s"] = (s["end"] - s["start"]) - covered


def layer_of(span_name: str) -> str:
    if span_name.startswith("sz."):
        return "compression"
    return _PROGRAM_SPAN_LAYER.get(span_name) or span_name.split(".", 1)[0]


def span_layer_metrics(
    trace: Trace, rounds: int, run_s: float, moves=(), trial_layer: str = "compression"
) -> dict[str, dict]:
    """The per-layer metrics every workload reads off its spans the same way.

    Times are seconds per armed round.  ``moves`` re-books measured probe
    time ``(from_layer, to_layer, seconds_per_round)`` out of a span that
    hides several layers (the stream controller, ``run_sweep``).
    ``trial_layer`` names the layer that pays for ``sz.*`` work outside any
    ``compress_many`` span: the stream books the trial compressions its
    calibrations order to ``models``, which decides how many there are.
    """
    run = [s for s in trace.spans if s["attrs"]["trace_id"] != "setup"]
    by_id = {s["span_id"]: s for s in trace.spans}
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    compress_s = 0.0
    for s in run:
        d = (s["end"] - s["start"]) / rounds
        dur[s["name"]] += d
        self_s[s["name"]] += s["attrs"]["self_s"] / rounds
        layer = layer_of(s["name"])
        if s["name"] in _COMPRESS_SPANS:
            compress_s += d
        elif s["name"].startswith("sz."):
            parent = s
            while parent["parent_id"] is not None:
                parent = by_id[parent["parent_id"]]
                if parent["name"] in _COMPRESS_SPANS:
                    break
            else:
                layer = trial_layer
                if trial_layer == "compression":
                    compress_s += d
        layer_self[layer] += s["attrs"]["self_s"] / rounds
    for source, target, seconds in moves:
        seconds = min(seconds, layer_self[source])
        layer_self[source] -= seconds
        layer_self[target] += seconds
    out = {
        name: metric(dur[s] if kind == "dur" else self_s[s], "s")
        for name, (s, kind) in _SPAN_METRICS.items()
        if s in dur
    }
    out["compression.compress_s"] = metric(compress_s, "s")
    if dur["compress"] > 0:  # the program's own definition of the §4.3 number
        out["core.adaptive_overhead_pct"] = metric(
            100.0 * overhead_summary(run)["overhead_ratio"], "%"
        )
    for layer in RUN_LAYERS:
        out[f"{layer}.self_s"] = metric(layer_self[layer], "s")
    out["bench.unattributed_s"] = metric(
        run_s / rounds - sum(layer_self.values()), "s"
    )
    out["telemetry.spans"] = metric(len(trace.spans), "count")
    return out


# -- the compressor contracts ---------------------------------------------------

_BOUND_SLACK = 1e-9  # tolerances of tests/compression/test_sz_properties.py


def contract_violations(kind, originals, reconstructions, bounds, blocks=None) -> list[str]:
    """Partitions that break their family's contract (empty when all hold).

    ``kind`` is ``"abs"`` (``max|x-x'| <= eb``), ``"pw_rel"``
    (``max|x'/x-1| <= eb``) or ``"fixed_rate"`` (payload bits per value
    within the configured rate; ``blocks`` are then the compressed streams).
    """
    bad = []
    for rank, (orig, recon, bound) in enumerate(zip(originals, reconstructions, bounds)):
        orig = np.asarray(orig, dtype=np.float64)
        if recon.shape != orig.shape or not np.isfinite(recon).all():
            bad.append(f"partition {rank}: shape or non-finite values")
        elif kind == "abs":
            limit = (
                bound * (1 + _BOUND_SLACK)
                + 4.0 * float(np.spacing(np.max(np.abs(orig), initial=1.0)))
                + 1e-12
            )
            err = float(np.max(np.abs(recon - orig)))
            if err > limit:
                bad.append(f"partition {rank}: max|err| {err:.6g} > eb {bound:.6g}")
        elif kind == "pw_rel":
            err = float(np.max(np.abs(recon / orig - 1.0)))
            if err > bound * (1 + _BOUND_SLACK) + 1e-12:
                bad.append(f"partition {rank}: max rel err {err:.6g} > {bound:.6g}")
        elif kind == "fixed_rate":
            cells = blocks[rank].exponents.size * 64
            rate = 8.0 * len(blocks[rank].payload) / cells
            if rate > blocks[rank].rate + 8.0 / cells:
                bad.append(f"partition {rank}: {rate:.4g} bits/value over the rate")
        else:
            raise ValueError(f"unknown contract kind {kind!r}")
    return bad


def same_payloads(written, loaded) -> bool:
    """Did a container round trip return every block's payload bytes?"""
    return len(written) == len(loaded) and all(
        a.payloads == b.payloads and a.eb == b.eb and a.shape == b.shape
        for a, b in zip(written, loaded)
    )


# -- floors the hardware sets ----------------------------------------------------

_MEMCPY_BYTES = 64 * 2**20


def _llc_bytes() -> int:
    """Largest cache the host reports for cpu0; 0 when it reports none."""
    sizes = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            text = (index / "size").read_text().strip()
            sizes.append(int(text[:-1]) * {"K": 2**10, "M": 2**20}[text[-1]])
        except (OSError, ValueError, KeyError, IndexError):
            continue
    return max(sizes, default=0)


def compression_floors(fields: dict[str, np.ndarray], decomposition, bounds) -> tuple[dict, dict]:
    """Roofline rows measured in this process: memcpy bandwidth, bare
    ``zlib.compress`` over the ``sz:codec=raw`` code bytes of the same
    blocks, and the program's entropy stage over that floor.

    ``bounds`` maps a field to its per-partition bounds.  Returns
    ``(metrics, info)``; ``info`` states the array sizes, because the host's
    last-level cache is larger than any array worth copying here.
    """
    first = next(iter(fields.values()))
    src = np.resize(first.ravel(), _MEMCPY_BYTES // first.itemsize)
    dst = np.empty_like(src)
    copies = []
    for _ in range(5):
        start = perf_counter()
        np.copyto(dst, src)
        copies.append(perf_counter() - start)

    sz, raw = resolve_compressor("sz"), resolve_compressor("sz:codec=raw")
    level = sz.codec.level
    raw_bytes = sum(a.nbytes for a in fields.values())
    zlib_s, code_bytes = 0.0, 0
    with telemetry.armed(reset_metrics=False) as tracer:
        for name, data in fields.items():
            views = decomposition.partition_views(data)
            sz.compress_many(views, bounds[name])
            for block in raw.compress_many(views, bounds[name]):
                codes = block.payloads["codes"][1:]
                code_bytes += len(codes)
                start = perf_counter()
                zlib.compress(codes, level)
                zlib_s += perf_counter() - start
        entropy_s = sum(
            s["end"] - s["start"]
            for s in tracer.export_spans()
            if s["name"] == "sz.entropy" and s["attrs"]["codec"] == "zlib"
        )
    # The entropy stage fans out over os.cpu_count() threads, so its floor is
    # bare zlib spread perfectly over as many: a bound no codec order beats.
    threads = os.cpu_count() or 1
    floor_s = zlib_s / threads
    metrics = {
        "compression.floor.memcpy_MBps": metric(
            src.nbytes / MB / statistics.median(copies), "MB/s"
        ),
        "compression.floor.zlib_MBps": metric(raw_bytes / MB / floor_s, "MB/s"),
        "compression.entropy_over_zlib_floor": metric(entropy_s / floor_s, "x"),
    }
    info = {
        "memcpy_array_bytes": int(src.nbytes),
        "llc_bytes": _llc_bytes(),
        "zlib_level": level,
        "zlib_input_bytes": code_bytes,
        "zlib_single_thread_s": zlib_s,
        "threads": threads,
    }
    return metrics, info


# -- provenance -------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    status = _git("status", "--porcelain")
    return {
        "schema_version": SCHEMA_VERSION,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "utc_time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "host": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "zlib": zlib.ZLIB_RUNTIME_VERSION,
            "available_kernels": list(available_kernels()),
            "kernels_auto": get_kernels("auto").name,
            "argv": sys.argv[1:],
        },
    }
