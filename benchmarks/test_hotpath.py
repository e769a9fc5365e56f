"""Hot-path wall-clock: fused kernels and codec-free calibration.

Measures the two performance claims of the zero-copy/estimator layer:

1. the fused compress kernel (batched quantize -> in-place Lorenzo ->
   residual encode) against a frozen copy of the seed
   implementation (per-call temporaries, ``np.diff`` chain, allocating
   residual encode), kernel-only and end-to-end;
2. ``calibrate_rate_model(probe_mode="model")`` against
   ``probe_mode="exact"`` on the benchmark grid at two partition sizes
   (32^3 — the closest laptop-scale stand-in for the paper's 64^3
   partitions — and 16^3), asserting that the codec-free probe stays
   faster than running the codec on the 32^3 grid and that the two fits
   predict bit rates within 10% of each other.

Each run appends a record to ``BENCH_hotpath.json`` (repo root / CWD),
building a trajectory of measured speedups across commits.  Set
``REPRO_BENCH_SMOKE=1`` (as the CI does) for a reduced grid.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.compression.codecs import get_codec
from repro.compression.kernels import zigzag
from repro.compression.quantizer import DEFAULT_RADIUS
from repro.compression.sz import SZCompressor
from repro.models.calibration import calibrate_rate_model
from repro.telemetry.report import stage_summary
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator
from repro.util.tables import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SHAPE = (32, 32, 32) if SMOKE else (64, 64, 64)
#: Field sizes for the batched compress_many comparison; each is cut
#: into 32^3 blocks (the paper-scale partition the batch path targets).
BATCH_GRIDS = ((32, 32, 32),) if SMOKE else ((64, 64, 64), (128, 128, 128))
#: Wall-clock floor for the batched path, asserted only on real
#: multi-core hardware (see the gate in test_batched_compress): the
#: batch must win >= 1.2x vs. a Python loop of single-block compresses.
MIN_NUMPY_BATCH_SPEEDUP = 1.2
#: Partition counts per axis for the calibration comparison; the first
#: entry is the primary grid the speedup floor is asserted on.
CALIBRATION_BLOCKS = (2,) if SMOKE else (2, 4)
ROUNDS = 3
#: The speedup floor on the paper-realistic partitions: the estimate
#: probe must at least not be slower than the exact one.  The figure is
#: a ratio against exact-mode time, so it moves whenever the codec does:
#: 3.8x (0.153 s / 0.040 s) while the entropy stage was an LZ77 search
#: run block by block, 1.4-1.8x (0.07 s / 0.04 s) since exact probes are
#: one batch through run-length DEFLATE — the estimate path's own time
#: is unchanged.  Wall-clock assertions are skipped entirely in smoke
#: mode: single-core shared CI runners make one-off timing ratios flaky,
#: and the smoke run's job is to exercise the path and upload the
#: trajectory, not to gate on it.
MIN_CALIBRATION_SPEEDUP = 1.0
TRAJECTORY = Path("BENCH_hotpath.json")


# -- frozen seed implementation (unfused), the comparison baseline ----------


def _seed_kernel(arr: np.ndarray, eb: float, radius: int = DEFAULT_RADIUS):
    """Quantize -> Lorenzo -> residual encode exactly as the seed did:
    float64 upcast copy, fresh rint/divide temporaries, per-axis
    ``np.diff`` outputs, ``np.where`` + ``astype`` residual encode."""
    work = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(work).all():
        raise ValueError("non-finite")
    with np.errstate(over="ignore"):
        q = np.rint(work / (2.0 * eb))
    q = q.astype(np.int64)
    out = q
    for axis in range(out.ndim):
        shape = list(out.shape)
        shape[axis] = 1
        out = np.diff(out, axis=axis, prepend=np.zeros(shape, dtype=out.dtype))
    res = out.ravel().astype(np.int64)
    codes = res + radius
    fits = (codes >= 1) & (codes <= 2 * radius - 1)
    out_pos = np.flatnonzero(~fits)
    out_val = res[out_pos].copy()
    codes = np.where(fits, codes, 0).astype(np.int64)
    return codes, out_pos, out_val


def _seed_compress(arr: np.ndarray, eb: float, codec) -> dict[str, bytes]:
    codes, out_pos, out_val = _seed_kernel(arr, eb)
    return {
        "codes": codec.encode(codes),
        "outlier_pos": zlib.compress(out_pos.astype(np.int64).tobytes(), 6),
        "outlier_val": zlib.compress(zigzag(out_val).tobytes(), 6),
    }


def _best_of(fn, rounds: int = ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _best_of_interleaved(fns: dict, rounds: int = ROUNDS) -> dict[str, float]:
    """Best-of-``rounds`` of each of ``fns``, one call of each per round,
    so a stretch of machine noise lands on every side of a ratio."""
    times = {key: [] for key in fns}
    for _ in range(rounds):
        for key, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - start)
    return {key: min(ts) for key, ts in times.items()}


def test_hotpath(benchmark):
    sim = NyxSimulator(shape=SHAPE, box_size=float(SHAPE[0]), seed=42, sigma_delta0=2.5)
    snap = sim.snapshot(z=0.5)
    data = snap["temperature"]
    eb = float(np.ptp(data.astype(np.float64))) * 3e-3
    comp = SZCompressor()
    codec = get_codec("zlib")
    comp.compress(data, eb)  # warm the caches

    def run():
        # The two kernels take ~3 ms and differ by under 10 %: both
        # allocate their temporaries per call and reuse freed pages, so
        # separate best-of loops let one noisy stretch flip the ratio.
        t = _best_of_interleaved(
            {
                "kernel_seed_s": lambda: _seed_kernel(data, eb),
                "kernel_fused_s": lambda: comp._quantize_encode_batch([data], np.array([eb])),
            },
            rounds=15,
        )
        t |= {
            "compress_seed_s": _best_of(lambda: _seed_compress(data, eb, codec)),
            "compress_fused_s": _best_of(lambda: comp.compress(data, eb)),
        }
        for blocks in CALIBRATION_BLOCKS:
            views = BlockDecomposition(data.shape, blocks=blocks).partition_views(data)
            # The two modes differ by ~20 % on ~25 ms: separate best-of-3
            # runs let one noisy stretch of a shared machine flip the ratio.
            # Record keys keep the codec-free mode's former name.
            best = _best_of_interleaved(
                {
                    key: lambda m=mode, v=views: calibrate_rate_model(
                        v, eb_scale=eb, max_partitions=24, seed=0, probe_mode=m
                    )
                    for key, mode in (("exact", "exact"), ("estimate", "model"))
                },
                rounds=15,
            )
            for key, seconds in best.items():
                t[f"calibration_{key}_b{blocks}_s"] = seconds
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)

    # Fit agreement: model-mode calibration must predict the same
    # bit rates as exact-mode to within 10% across the probe range.
    primary = CALIBRATION_BLOCKS[0]
    views = BlockDecomposition(data.shape, blocks=primary).partition_views(data)
    fit_exact = calibrate_rate_model(
        views, eb_scale=eb, max_partitions=24, seed=0, probe_mode="exact"
    )
    fit_est = calibrate_rate_model(
        views, eb_scale=eb, max_partitions=24, seed=0, probe_mode="model"
    )
    means = np.array([float(np.mean(np.abs(v))) for v in views])
    fit_dev = max(
        float(
            np.max(
                np.abs(
                    fit_est.rate_model.predict_bitrate(means, f * eb)
                    / fit_exact.rate_model.predict_bitrate(means, f * eb)
                    - 1.0
                )
            )
        )
        for f in (0.25, 1.0, 4.0)
    )

    kernel_speedup = t["kernel_seed_s"] / t["kernel_fused_s"]
    compress_speedup = t["compress_seed_s"] / t["compress_fused_s"]
    calibration_speedups = {
        blocks: t[f"calibration_exact_b{blocks}_s"] / t[f"calibration_estimate_b{blocks}_s"]
        for blocks in CALIBRATION_BLOCKS
    }
    primary_speedup = calibration_speedups[primary]

    record = {
        "grid": list(SHAPE),
        "smoke": SMOKE,
        "timings_s": t,
        "kernel_speedup": kernel_speedup,
        "compress_speedup": compress_speedup,
        "calibration_speedups": {
            f"{SHAPE[0] // b}^3_partitions": s for b, s in calibration_speedups.items()
        },
        "calibration_fit_max_rel_dev": fit_dev,
        "fit_exact": {
            "c": fit_exact.shared_exponent,
            "alpha": fit_exact.rate_model.coef_alpha,
            "beta": fit_exact.rate_model.coef_beta,
        },
        "fit_estimate": {
            "c": fit_est.shared_exponent,
            "alpha": fit_est.rate_model.coef_alpha,
            "beta": fit_est.rate_model.coef_beta,
        },
    }
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")

    rows = [
        ["compress kernel", t["kernel_seed_s"], t["kernel_fused_s"], kernel_speedup],
        ["compress end-to-end", t["compress_seed_s"], t["compress_fused_s"], compress_speedup],
    ]
    for blocks in CALIBRATION_BLOCKS:
        rows.append(
            [
                f"calibration ({SHAPE[0] // blocks}^3 parts)",
                t[f"calibration_exact_b{blocks}_s"],
                t[f"calibration_estimate_b{blocks}_s"],
                calibration_speedups[blocks],
            ]
        )
    print()
    print(
        format_table(
            ["stage", "seed/exact (s)", "fused/estimate (s)", "speedup"],
            rows,
            title=f"Hot path ({SHAPE[0]}^3 field)" + (" [smoke]" if SMOKE else ""),
        )
    )

    assert fit_dev < 0.10, f"model-mode fit deviates {fit_dev:.1%} from exact"
    if not SMOKE:
        assert primary_speedup >= MIN_CALIBRATION_SPEEDUP, (
            f"model-mode calibration only {primary_speedup:.2f}x faster"
        )
        # The kernel fusion must not regress; the recorded speedup is
        # the trajectory metric (codec time dominates end-to-end, so the
        # end-to-end ratio is close to 1 by construction).
        assert kernel_speedup > 1.0, (
            f"fused kernel slower than seed ({kernel_speedup:.2f}x)"
        )
        assert compress_speedup > 0.9, "fused end-to-end compress regressed"


# -- batched block-parallel compression (PR 8) -------------------------------

_STAGES = ("map", "quantize", "lorenzo", "residual", "entropy", "side_channels")


def _stage_times(comp: SZCompressor, views, eb: float) -> dict[str, float]:
    """Best-of-ROUNDS per-stage breakdown of one batched compress pass.

    Runs the *real* ``compress_many`` under an armed tracer and reads
    the ``sz.*`` stage spans the batched path emits (eb-space mapping,
    batched quantize, batched Lorenzo, batched residual encode, the
    outlier side channels, and per-block entropy coding).  Measuring
    the production spans instead of a hand-rolled re-implementation
    means the breakdown cannot drift from the pipeline it describes;
    the span overhead itself is bounded by
    ``benchmarks/test_telemetry_overhead.py``.
    """
    ebs = [eb] * len(views)
    best = dict.fromkeys(_STAGES, float("inf"))
    for _ in range(ROUNDS):
        with telemetry.armed(track="bench") as tracer:
            comp.compress_many(views, ebs)
            stages = stage_summary(tracer.export_spans())
        for stage in _STAGES:
            seconds = float(stages.get(stage, {}).get("seconds", 0.0))
            best[stage] = min(best[stage], seconds)
    return best


def test_batched_compress(benchmark):
    """Loop-of-compress vs. batched compress_many.

    Byte-identity between the two paths is asserted unconditionally;
    the wall-clock floors only on real multi-core hardware (single-core
    runners can't show a parallel win and shared CI timing is flaky).
    """
    cores = os.cpu_count() or 1
    grids = {}
    table_rows = []
    for grid in BATCH_GRIDS:
        sim = NyxSimulator(
            shape=grid, box_size=float(grid[0]), seed=42, sigma_delta0=2.5
        )
        data = sim.snapshot(z=0.5)["temperature"]
        eb = float(np.ptp(data.astype(np.float64))) * 3e-3
        views = BlockDecomposition(data.shape, blocks=grid[0] // 32).partition_views(
            data
        )
        ebs = [eb] * len(views)
        comp = SZCompressor()
        comp.compress_many(views[:2], ebs[:2])  # warm caches
        batched = comp.compress_many(views, ebs)
        singles = [comp.compress(v, eb) for v in views]
        assert [b.payloads for b in batched] == [s.payloads for s in singles]

        def run_loop(c=comp, v=views, e=eb):
            return [c.compress(x, e) for x in v]

        t_loop = _best_of(run_loop)
        t_batch = _best_of(lambda c=comp, v=views, e=ebs: c.compress_many(v, e))
        speedup = t_loop / t_batch
        grids[f"{grid[0]}^3"] = {
            "n_blocks": len(views),
            "block": 32,
            "loop_s": t_loop,
            "batch_s": t_batch,
            "speedup": speedup,
            "stages_s": _stage_times(comp, views, eb),
        }
        table_rows.append([f"{grid[0]}^3", t_loop, t_batch, speedup])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    record = {
        "kind": "batched_compress",
        "smoke": SMOKE,
        "cpu_count": cores,
        "grids": grids,
    }
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")

    print()
    print(
        format_table(
            ["grid", "loop (s)", "compress_many (s)", "speedup"],
            table_rows,
            title=f"Batched compress ({cores} core(s))"
            + (" [smoke]" if SMOKE else ""),
        )
    )
    largest = grids[f"{BATCH_GRIDS[-1][0]}^3"]
    stages = largest["stages_s"]
    total = sum(stages.values())
    breakdown = ", ".join(f"{s}={stages[s] * 1e3:.1f}ms" for s in _STAGES)
    print(f"stages ({total * 1e3:.1f}ms total): {breakdown}")

    if not SMOKE and cores >= 4:
        assert largest["speedup"] >= MIN_NUMPY_BATCH_SPEEDUP, (
            f"batch only {largest['speedup']:.2f}x"
        )
