"""Telemetry overhead: the instrumentation must not move the numbers it
reports.

Two bounds on the 64^3 compress hot path (the most span-dense loop in
the stack — six ``sz.*`` stage spans per batched pass):

1. **Disarmed (no-op) overhead < 1%**: the permanent instrumentation —
   ``with tracer.span(...)`` against the null tracer plus the
   ``telemetry.enabled()`` guards — costed directly: the per-dispatch
   price of the null path is micro-benchmarked in a tight loop,
   multiplied by the span count one compress pass actually emits, and
   expressed as a fraction of the disarmed compress time.  (An A/B
   wall-clock diff cannot resolve this — run-to-run noise on a ~10 ms
   compress is larger than the entire null path.)
2. **Armed overhead < 5%**: a live tracer recording every stage span
   versus the disarmed baseline, measured A/B best-of-ROUNDS.

Each run appends a record to ``BENCH_telemetry.json`` (CWD), building
the overhead trajectory across commits.  Wall-clock assertions are
skipped under ``REPRO_BENCH_SMOKE=1`` (shared single-core CI runners
make one-off ratios flaky); the smoke run still exercises both paths
and uploads the trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.compression.sz import SZCompressor
from repro.util.tables import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SHAPE = (32, 32, 32) if SMOKE else (64, 64, 64)
#: Best-of rounds per side.  One 64^3 compress is ~8 ms (42 ms while the
#: entropy stage was an LZ77 search), and a best-of over 7 of those moved
#: +-10 % run to run against a 5 % gate; 35 cost what 7 used to and
#: resolved it (-5 .. +2 % over eight runs) until the compress fell to
#: ~6.6 ms: on a 2-vCPU VM 35 rounds then read -11 .. +7 % over eight
#: runs, 175 read -4 .. +2 % over twelve (~2.4 s).
ROUNDS = 3 if SMOKE else 175
MAX_NOOP_OVERHEAD = 0.01
MAX_ARMED_OVERHEAD = 0.05
TRAJECTORY = Path("BENCH_telemetry.json")


def _best_of(fn, rounds: int = ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _null_dispatch_cost(n_ops: int = 200_000) -> float:
    """Seconds per disarmed instrumentation point: one null ``span()``
    context plus one ``enabled()`` guard (the hot-loop idiom)."""
    telemetry.disarm()
    tracer = telemetry.get_tracer()
    start = time.perf_counter()
    for _ in range(n_ops):
        with tracer.span("x"):
            pass
        telemetry.enabled()
    return (time.perf_counter() - start) / n_ops


def test_telemetry_overhead(benchmark):
    data, eb = _field()
    comp = SZCompressor()
    comp.compress(data, eb)  # warm caches

    def one_pass(armed: bool) -> tuple[float, int]:
        """One timed compress, disarmed or under a live tracer:
        (seconds, spans recorded)."""
        if not armed:
            telemetry.disarm()
            return _best_of(lambda: comp.compress(data, eb), 1), 0
        with telemetry.armed(track="bench") as tracer:
            took = _best_of(lambda: comp.compress(data, eb), 1)
        return took, len(tracer.export_spans())

    def run():
        # Sides alternate round by round, and so does which side goes
        # first: a core that comes and goes between two back-to-back
        # passes, or a cache the first pass warms for the second, would
        # otherwise be billed to one side.
        times, spans = {False: [], True: []}, 0
        for i in range(ROUNDS):
            for armed in (False, True)[:: 1 if i % 2 == 0 else -1]:
                took, n_spans = one_pass(armed)
                times[armed].append(took)
                spans += n_spans
        disarmed, armed = times[False], times[True]
        return {
            "disarmed_s": min(disarmed),
            "armed_s": min(armed),
            "null_dispatch_s": _null_dispatch_cost(),
            "spans_per_pass": spans / ROUNDS,
        }

    t = benchmark.pedantic(run, rounds=1, iterations=1)

    base = t["disarmed_s"]
    noop_overhead = t["null_dispatch_s"] * t["spans_per_pass"] / base
    armed_overhead = t["armed_s"] / base - 1.0
    record = {
        "grid": list(SHAPE),
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "timings_s": t,
        "noop_overhead": noop_overhead,
        "armed_overhead": armed_overhead,
    }
    _append_trajectory(record)

    print()
    print(
        format_table(
            ["path", "best-of (s)", "overhead"],
            [
                ["disarmed (baseline)", base, 0.0],
                [
                    f"null dispatch x{t['spans_per_pass']:.0f}",
                    t["null_dispatch_s"] * t["spans_per_pass"],
                    noop_overhead,
                ],
                ["armed", t["armed_s"], armed_overhead],
            ],
            title=f"Telemetry overhead ({SHAPE[0]}^3 compress)"
            + (" [smoke]" if SMOKE else ""),
        )
    )

    assert t["spans_per_pass"] > 0, "armed compress recorded no spans"
    # The no-op dispatch bound is hardware-independent enough to hold in
    # smoke mode too: microseconds of null calls against milliseconds of
    # compression.
    assert noop_overhead < MAX_NOOP_OVERHEAD, (
        f"no-op telemetry costs {noop_overhead:.3%} (gate {MAX_NOOP_OVERHEAD:.0%})"
    )
    if not SMOKE:
        assert armed_overhead < MAX_ARMED_OVERHEAD, (
            f"armed telemetry costs {armed_overhead:.2%} (gate {MAX_ARMED_OVERHEAD:.0%})"
        )


def _field():
    from repro.sim.nyx import NyxSimulator

    sim = NyxSimulator(
        shape=SHAPE, box_size=float(SHAPE[0]), seed=42, sigma_delta0=2.5
    )
    data = sim.snapshot(z=0.5)["temperature"]
    eb = float(np.ptp(data.astype(np.float64))) * 3e-3
    return data, eb


def _append_trajectory(record: dict) -> None:
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
