"""Validation + speedup of the closed-form ratio-quality (R-Q) engine.

Three claims, all on the session Nyx snapshot (64^3, every field):

1. **Prediction accuracy** — one codec-free quantization probe predicts
   each field's PSNR within ~1 dB and its ratio within ~10% of the real
   compress -> decompress measurement at the field's mid-curve bound.
2. **Selection parity at >= 10x fewer compressor invocations** —
   ``select_compressor(probe_mode="model")`` reaches the same chosen
   spec and per-candidate eligibility as exact mode on every field,
   while the counted ``compress`` calls drop by >= 10x (calibration runs
   on the batched quantization probe; only the fixed-rate candidate's
   measured sample remains).
3. **Sweep fast path** — a quality sweep under ``probe_mode="model"``
   returns the same per-(field, eb) verdicts as the exact sweep and is
   wall-clock faster (a floor is asserted outside smoke mode).

Both parity checks are deterministic, so they assert in smoke mode too;
only the wall-clock floor is gated on ``REPRO_BENCH_SMOKE`` (shared CI
runners make one-off timing ratios flaky).  Each run appends a record to
``BENCH_rq.json``, building a trajectory of predicted-vs-measured deltas
and speedups across commits.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import _default_eb, correlated_fraction, spectrum_tolerance
from repro.analysis.metrics import error_summary
from repro.compression.sz import SZCompressor
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.core.config import FieldSpec
from repro.core.selection import select_compressor
from repro.foresight.quality import QualityCriteria
from repro.foresight.sweep import run_sweep
from repro.util.tables import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_EBS = 3 if SMOKE else 6
ROUNDS = 1 if SMOKE else 3
#: Acceptance tolerances for claim 1 (the ISSUE's validation targets).
MAX_PSNR_DELTA_DB = 1.0
MAX_RATIO_REL_ERR = 0.10
#: Floors for claims 2 (deterministic, always asserted) and 3
#: (wall-clock, asserted outside smoke mode).  The >= 10x acceptance
#: criterion is the invocation count.  The wall-clock figure is a ratio
#: against the exact sweep, so it moves whenever the codec does: ~4.5x
#: (2.13 s / 0.47 s, warm) while every cell was an LZ77 search run block
#: by block, 2.4-3.0x (1.2 s / 0.4-0.5 s) once the exact sweep batched
#: its cells through run-length DEFLATE, and 2.0-2.1x (0.26-0.34 s /
#: 0.13-0.17 s) since exact cells score the compress_many(out=)
#: reconstruction instead of decoding and the model path probes each
#: field's bound ladder with one estimate_ladder, its reference built
#: beside the probe (the trajectory records the actual figure).  The
#: asserted floor only guards against the fast path regressing outright.
MIN_INVOCATION_REDUCTION = 10.0
MIN_SWEEP_SPEEDUP = 1.5
TRAJECTORY = Path("BENCH_rq.json")


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class _CompressCounter:
    """Count every block compressed by the candidate compressor classes:
    one per ``compress`` call, one per view of a ``compress_many`` batch
    (``zfp_like``'s batch is a loop over its own ``compress``)."""

    CLASSES = (SZCompressor, ZFPLikeCompressor)

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        for cls in self.CLASSES:
            original = cls.compress

            def counted(comp, *args, _original=original, **kwargs):
                self.calls += 1
                return _original(comp, *args, **kwargs)

            monkeypatch.setattr(cls, "compress", counted)
        original_many = SZCompressor.compress_many

        def counted_many(comp, views, *args, **kwargs):
            self.calls += len(views)
            return original_many(comp, views, *args, **kwargs)

        monkeypatch.setattr(SZCompressor, "compress_many", counted_many)


def test_rq_model(benchmark, snapshot, decomposition, monkeypatch):
    # -- claim 1: predicted vs measured PSNR/ratio, every field -------------
    comp = SZCompressor()
    accuracy_rows = []
    accuracy = {}
    for name, data in snapshot.fields.items():
        eb = _default_eb(name, data)
        est = comp.estimate(data, eb)
        block = comp.compress(data, eb)
        measured = error_summary(data, comp.decompress(block))
        psnr_delta = est.predicted_psnr_db - measured.psnr_db
        ratio_rel = est.ratio / block.ratio - 1.0
        accuracy[name] = {
            "eb": eb,
            "predicted_psnr_db": est.predicted_psnr_db,
            "measured_psnr_db": measured.psnr_db,
            "psnr_delta_db": psnr_delta,
            "predicted_ratio": est.ratio,
            "measured_ratio": block.ratio,
            "ratio_rel_err": ratio_rel,
        }
        accuracy_rows.append(
            [name, est.predicted_psnr_db, measured.psnr_db, psnr_delta,
             est.ratio, block.ratio, ratio_rel]
        )
        assert abs(psnr_delta) <= MAX_PSNR_DELTA_DB, (
            f"{name}: predicted PSNR off by {psnr_delta:+.2f} dB"
        )
        assert abs(ratio_rel) <= MAX_RATIO_REL_ERR, (
            f"{name}: predicted ratio off by {ratio_rel:+.1%}"
        )

    # -- claim 2: selection parity + invocation reduction, every field ------
    def select_all(mode: str):
        results = {}
        for name, data in snapshot.fields.items():
            spec = FieldSpec(
                spectrum_tolerance=spectrum_tolerance(name),
                correlated_fraction=correlated_fraction(name),
            )
            # No eb_avg: both modes derive the admissible bound from the
            # field spec's budget inversion and rank the candidates by
            # predicted rate at it — the production decision being
            # reproduced; only the rate probes differ.
            results[name] = select_compressor(
                data,
                decomposition,
                field_spec=spec,
                field=name,
                probe_mode=mode,
            )
        return results

    with monkeypatch.context() as mp:
        counter = _CompressCounter(mp)
        exact_sel = select_all("exact")
        exact_calls = counter.calls
    with monkeypatch.context() as mp:
        counter = _CompressCounter(mp)
        model_sel = select_all("model")
        model_calls = counter.calls

    selection = {}
    for name in snapshot.fields:
        ex, mo = exact_sel[name], model_sel[name]
        assert str(mo.chosen) == str(ex.chosen), (
            f"{name}: model mode chose {mo.chosen}, exact chose {ex.chosen}"
        )
        assert [(str(v.spec), v.eligible) for v in mo.verdicts] == [
            (str(v.spec), v.eligible) for v in ex.verdicts
        ], f"{name}: candidate eligibility differs between modes"
        selection[name] = {
            "chosen": str(ex.chosen),
            "eligibility": [(str(v.spec), v.eligible) for v in ex.verdicts],
        }
    invocation_reduction = exact_calls / max(model_calls, 1)
    assert invocation_reduction >= MIN_INVOCATION_REDUCTION, (
        f"model-mode selection only cut compressor invocations by "
        f"{invocation_reduction:.1f}x ({exact_calls} -> {model_calls})"
    )

    # -- claim 3: sweep verdict parity + wall-clock fast path ---------------
    fields = dict(snapshot.fields)
    crit = {
        name: QualityCriteria(
            spectrum_tolerance=spectrum_tolerance(name), spectrum_k_max=10
        )
        for name in fields
    }
    max_eb = max(_default_eb(name, data) for name, data in fields.items())
    ebs = np.geomspace(max_eb / 30.0, max_eb, N_EBS)

    def exact_sweep():
        return run_sweep(fields, ebs, crit, decomposition=decomposition)

    def model_sweep():
        return run_sweep(
            fields, ebs, crit, decomposition=decomposition, probe_mode="model"
        )

    def run():
        # Interleaved, so a slow spell on this shared box hits both modes
        # rather than whichever happened to run during it.
        exact_s, model_s = [], []
        for _ in range(ROUNDS):
            exact_s.append(_seconds(exact_sweep))
            model_s.append(_seconds(model_sweep))
        return {"sweep_exact_s": min(exact_s), "sweep_model_s": min(model_s)}

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    sweep_speedup = t["sweep_exact_s"] / t["sweep_model_s"]

    exact_records = exact_sweep()
    model_records = model_sweep()
    assert [r.passed for r in model_records] == [r.passed for r in exact_records], (
        "model-mode sweep verdicts differ from exact mode"
    )
    for re_, rm in zip(exact_records, model_records):
        assert abs(rm.quality.psnr_db - re_.quality.psnr_db) <= MAX_PSNR_DELTA_DB
        assert abs(rm.ratio / re_.ratio - 1.0) <= MAX_RATIO_REL_ERR

    record = {
        "smoke": SMOKE,
        "n_ebs": int(N_EBS),
        "accuracy": accuracy,
        "selection": selection,
        "compress_calls": {"exact": exact_calls, "model": model_calls},
        "invocation_reduction": invocation_reduction,
        "timings_s": t,
        "sweep_speedup": sweep_speedup,
        "max_abs_psnr_delta_db": max(
            abs(a["psnr_delta_db"]) for a in accuracy.values()
        ),
        "max_abs_ratio_rel_err": max(
            abs(a["ratio_rel_err"]) for a in accuracy.values()
        ),
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
            ["field", "pred PSNR", "meas PSNR", "delta dB",
             "pred ratio", "meas ratio", "rel err"],
            accuracy_rows,
            title="R-Q prediction vs measurement (one probe, no codec)"
            + (" [smoke]" if SMOKE else ""),
        )
    )
    print(
        format_table(
            ["stage", "exact", "model", "factor"],
            [
                ["selection compress calls", exact_calls, model_calls,
                 invocation_reduction],
                [f"quality sweep s ({N_EBS} ebs)", t["sweep_exact_s"],
                 t["sweep_model_s"], sweep_speedup],
            ],
            title="Ratio-quality fast path",
        )
    )

    if not SMOKE:
        assert sweep_speedup >= MIN_SWEEP_SPEEDUP, (
            f"model-mode sweep only {sweep_speedup:.1f}x faster than exact"
        )
