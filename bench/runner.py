"""Running the benchmark: one pass of one workload in this process, or the
whole suite with every pass in a fresh subprocess.

A pass is closed-loop and single-process: the harness issues one call at a
time and waits for it, with no load-generating threads of its own (the
program's entropy thread pool keeps its default size).  It makes the inputs
from the seed once, sets the workload up on them ``SETUP_REPEATS`` times,
runs whole rounds (at least ``MIN_ROUNDS``) until ``--seconds`` of timed
work are done (or exactly ``--rounds``), samples peak RSS, and only then
checks the outputs.  A traced pass does the same with telemetry armed; the
suite reads the armed overhead off the two passes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter

from bench import ROOT
from bench.compare import EXTRA_BOUNDS

SETUP_REPEATS = 3
#: A timed pass never stops after one round: with a single sample per op
#: class there is no median, and one burst of machine noise is the result.
MIN_ROUNDS = 2

#: End-to-end metrics that repeat exactly for a given seed; the suite
#: asserts they are bit-equal between the traced and the untraced pass.
DETERMINISTIC = (
    "stored_ratio", "psnr_min_db",
    *(name for name, bound in EXTRA_BOUNDS.items() if bound == 0),
)


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_pass(name: str, seed: int, seconds: float, rounds: int | None,
             traced: bool, scale: str, out: str | None) -> dict:
    """One pass of one workload; returns its detail record."""
    start = perf_counter()
    from repro.telemetry.export import write_export

    from bench.harness import Recorder, Trace, metric, span
    from bench.workloads import PARAMS, WORKLOADS

    import_s = perf_counter() - start
    trace = Trace() if traced else None
    if out:
        os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out or os.getcwd(), prefix=".bench_scratch-") as scratch:
        with trace.window() if traced else nullcontext(), span("bench.inputs", op="setup"):
            snaps = WORKLOADS[name].simulate(scale, seed)
        builds = []
        repeats = SETUP_REPEATS if scale == "full" else 1
        for repeat in range(repeats):
            workload = WORKLOADS[name](scale, snaps, scratch)
            arm = traced and repeat == repeats - 1
            start = perf_counter()
            with trace.window() if arm else nullcontext(), span("bench.setup", op="setup"):
                workload.setup()
            builds.append(perf_counter() - start)

        rec = Recorder()
        with trace.window() if traced else nullcontext():
            while True:
                workload.round(rec)
                done = rec.round + 1
                if done >= rounds if rounds else (
                        done >= MIN_ROUNDS and rec.total_seconds() >= seconds):
                    break
                rec.round += 1
        n_rounds = rec.round + 1
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        metrics = {
            "setup_s": metric(import_s + statistics.median(builds), "s"),
            "peak_rss_MB": metric(peak_rss, "MB"),
            "e2e.run_s": metric(rec.total_seconds(), "s"),
            **workload.common_metrics(rec),
            **workload.verify(rec),
        }
        metrics["e2e.failed_ops_share"] = metric(len(rec.failed) / rec.attempted, "share")
        if traced:
            trace.finish()
            metrics.update(workload.per_layer(rec, trace, n_rounds, rec.total_seconds()))
            if out:
                write_export(os.path.join(out, f"{name}.trace.jsonl"), trace.spans,
                             [{"kind": "counter", "name": k, "value": v}
                              for k, v in sorted(trace.counters.items())])
    detail = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "rounds": n_rounds, "params": PARAMS[name][scale],
        "attempted": rec.attempted, "failed": len(rec.failed), "failures": rec.failed,
        "correct": not rec.failed, "metrics": metrics,
        "info": {**workload.info, "setup_builds_s": builds, "import_s": import_s,
                 "round_s": rec.round_seconds(workload.round_phases),
                 "op_samples_ms": {f"{phase}:{op_class}": [1e3 * v for v in values]
                                   for (phase, op_class), values in sorted(rec.samples.items())}},
    }
    if out:
        kind = "traced" if traced else "untraced"
        with open(os.path.join(out, f"{name}.{kind}.json"), "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True, default=list)
    return detail


def driver_line(detail: dict) -> str:
    """The one-line result the benchmark contract asks for: exactly the
    declared end-to-end metrics of an untraced pass, or exactly the declared
    per-layer metrics of a traced one (0 where a layer did no work)."""
    spec = declared()["per_layer" if detail["traced"] else "end_to_end"]
    absent = {"value": 0.0}
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": detail["metrics"].get(m["name"], absent)["value"],
                                "unit": m["unit"]} for m in spec},
    })


def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name in sorted(metrics, key=lambda n: ("." in n, n)):
        print(f"  {name:42s} {metrics[name]['value']:16.6g} {metrics[name]['unit']}")


def run_suite(names: list[str], seed: int, seconds: float, rounds: int | None,
              trace: bool, scale: str, out: str | None) -> int:
    """Every selected workload, untraced then traced, each pass in a fresh
    subprocess; merges the passes into ``<out>/result.json``."""
    from bench.harness import provenance

    out = out or tempfile.mkdtemp(prefix="bench-")
    os.makedirs(out, exist_ok=True)
    spec = declared()
    result = {"provenance": provenance(seed), "scale": scale, "seconds": seconds,
              "rounds": rounds, "declared": spec, "workloads": {}, "errors": []}
    for name in names:
        passes = {}
        for traced in (False, True) if trace else (False,):
            cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
                   "--trace", str(int(traced)), "--out", out]
            if rounds:
                cmd += ["--rounds", str(rounds)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            kind = "traced" if traced else "untraced"
            if done.returncode != 0:
                result["errors"].append(f"{name} {kind}: exit {done.returncode}\n{done.stderr}")
                continue
            with open(os.path.join(out, f"{name}.{kind}.json")) as fh:
                passes[kind] = json.load(fh)
        if "untraced" not in passes:
            continue
        base, traced_pass = passes["untraced"], passes.get("traced")
        merged = dict(base["metrics"])
        if traced_pass:
            merged.update({k: v for k, v in traced_pass["metrics"].items() if k not in merged})
            merged["telemetry.armed_overhead_pct"] = {
                "value": 100.0 * (traced_pass["info"]["round_s"] / base["info"]["round_s"] - 1.0),
                "unit": "%"}
            for key in DETERMINISTIC:
                a, b = base["metrics"].get(key), traced_pass["metrics"].get(key)
                if a != b:
                    result["errors"].append(f"{name}: {key} differs traced vs untraced: {b} != {a}")
        for p in passes.values():
            if not p["correct"]:
                result["errors"].append(f"{name}: failed ops {p['failures']}")
        result["workloads"][name] = {
            "metrics": merged, "params": base["params"], "rounds": base["rounds"],
            "attempted": base["attempted"], "failed": base["failed"],
            "info": {k: p["info"] for k, p in passes.items()},
        }
        print_metrics(f"{name} (seed {seed}, {base['rounds']} rounds)", merged)
    path = os.path.join(out, "result.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for error in result["errors"]:
        print(f"ERROR {error}", file=sys.stderr)
    print(f"results: {path}")
    return 1 if result["errors"] else 0
