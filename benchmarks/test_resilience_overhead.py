"""Resilience plumbing must cost (approximately) nothing when idle.

The fault points, the per-field retry wrapper and the ledger's
crash-safety path stay in production builds; their disarmed cost is the
price every run pays for fault tolerance.  This bench streams the same
schedule through a bare controller and a fully armored one (retry
policy, fallback compressor, recovery-capable ledger — but no faults),
and asserts:

1. **Determinism**: both ledgers replay to identical decisions — the
   resilience layer is invisible in the output (holds in every mode).
2. **Overhead**: the armored run's wall clock stays within
   ``MAX_OVERHEAD`` of the bare run (asserted outside smoke mode).

Each run appends a record to ``BENCH_resilience.json``, building an
overhead trajectory across commits.  Set ``REPRO_BENCH_SMOKE=1`` (as CI
does) for a reduced grid without wall-clock assertions.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.parallel.decomposition import BlockDecomposition
from repro.resilience import RetryPolicy
from repro.sim.nyx import NyxSimulator
from repro.stream import InSituController, SnapshotSequence, replay_ledger

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SHAPE = (16, 16, 16) if SMOKE else (32, 32, 32)
N_SNAPSHOTS = 4 if SMOKE else 8
REDSHIFTS = [4.0, 3.0, 2.2, 1.6, 1.2, 0.8, 0.5, 0.3][:N_SNAPSHOTS]
FIELDS = ("baryon_density", "temperature")
BLOCKS = 2
#: Best-of, interleaved with the side that runs first alternating: one
#: stream run is ~100 ms, and on a shared box a best-of-3 min still
#: caught noise bursts past the bound.
ROUNDS = 9
#: Disarmed fault points + retry closures are a few native calls per
#: field; anything beyond this bound means the hot path grew real work.
MAX_OVERHEAD = 0.25
TRAJECTORY = Path("BENCH_resilience.json")


def _stream(sim):
    return SnapshotSequence([sim.snapshot(z=z) for z in REDSHIFTS], fields=FIELDS)


def _timed_run(dec, stream, path, *, resilient: bool) -> float:
    kwargs = {}
    if resilient:
        kwargs = {
            "retry": RetryPolicy(max_attempts=3),
            "fallback_compressor": "sz:codec=zlib",
        }
    ctl = InSituController(dec, ledger=path, retain_results=False, **kwargs)
    start = time.perf_counter()
    ctl.run(stream)
    elapsed = time.perf_counter() - start
    ctl.ledger.close()
    return elapsed


def test_resilience_overhead(benchmark, tmp_path):
    sim = NyxSimulator(shape=SHAPE, box_size=float(SHAPE[0]), seed=42, sigma_delta0=2.5)
    dec = BlockDecomposition(SHAPE, blocks=BLOCKS)
    stream = _stream(sim)

    # Warm-up (numpy/FFT caches, codec tables) outside the timers.
    _timed_run(dec, stream, tmp_path / "warm.jsonl", resilient=False)

    def run():
        bare = [float("inf")] * ROUNDS
        armored = [float("inf")] * ROUNDS
        for i in range(ROUNDS):
            sides = [(bare, "bare", False), (armored, "armored", True)]
            for times, name, resilient in sides[:: 1 if i % 2 == 0 else -1]:
                times[i] = _timed_run(
                    dec, stream, tmp_path / f"{name}_{i}.jsonl", resilient=resilient
                )
        return min(bare), min(armored)

    t_bare, t_armored = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = t_armored / t_bare - 1.0

    # Determinism holds in every mode: the armored run's decisions are
    # bitwise identical to the bare run's.
    assert replay_ledger(tmp_path / "armored_0.jsonl") == replay_ledger(
        tmp_path / "bare_0.jsonl"
    )

    print(
        f"\nresilience overhead: bare {t_bare * 1e3:.1f} ms, "
        f"armored {t_armored * 1e3:.1f} ms ({overhead:+.1%})"
    )
    if not SMOKE:
        assert overhead < MAX_OVERHEAD

    record = {
        "grid": list(SHAPE),
        "smoke": SMOKE,
        "n_snapshots": N_SNAPSHOTS,
        "n_fields": len(FIELDS),
        "t_bare_s": t_bare,
        "t_armored_s": t_armored,
        "overhead": overhead,
    }
    trajectory = []
    if TRAJECTORY.exists():
        try:
            trajectory = json.loads(TRAJECTORY.read_text())
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
