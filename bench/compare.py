"""``python -m bench compare BASE NEW``: do two result sets agree?

Each side is one ``result.json`` or a directory holding several (a set of
runs of one commit).  Per workload and end-to-end metric it prints the base
median, the new median, their ratio and a verdict against the metric's
bound; then a per-layer table of seconds per round, to see which layer
moved.  Exit status 1 on any ``worse`` verdict or any rise in failed ops.

Verdicts: ``worse`` / ``better`` when the medians differ by more than the
bound, ``within-bound`` otherwise — and ``unresolved`` when a side's own
run-to-run spread (max - min over its median) exceeds the bound, unless
every new run beats every base run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Bounds of the end-to-end metrics that exist on some workloads only (they
#: are listed under ``per_layer`` in ``BENCHMARK.json``, which has no bounds).
#: 0 means "repeats exactly for a seed: may not worsen at all".
EXTRA_BOUNDS = {
    "e2e.write_MBps": 0.25,
    "e2e.read_MBps": 0.25,
    "e2e.cells_per_s": 0.25,
    "e2e.op_tail_ms": 0.25,
    "e2e.spectrum_dev_max": 0.0,
    "e2e.budget_error_pct": 0.0,
    "e2e.verdict_agreement_share": 0.0,
    "e2e.failed_ops_share": 0.0,
}


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.rglob("result.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"no result.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def _values(runs: list[dict], workload: str, name: str) -> list[float]:
    return [
        r["workloads"][workload]["metrics"][name]["value"]
        for r in runs
        if name in r["workloads"].get(workload, {}).get("metrics", {})
    ]


def _spread(values: list[float]) -> float:
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b) if b else sign * (n - b)
    if bound > 0 and max(_spread(base), _spread(new)) > bound:
        all_better = all(sign * (x - y) < 0 for x in new for y in base)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within-bound"


def compare_results(base_path: str, new_path: str) -> int:
    base, new = load_set(base_path), load_set(new_path)
    spec = base[0]["declared"]
    gated = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    gated.update({k: (layers[k]["better"], v) for k, v in EXTRA_BOUNDS.items()})
    bad = False
    print(f"base: {len(base)} run(s) of {base[0]['provenance']['git_commit']}, "
          f"new: {len(new)} run(s) of {new[0]['provenance']['git_commit']}")
    print(f"{'workload':18s} {'metric':28s} {'base':>12s} {'new':>12s} {'new/base':>9s}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for name, (better, bound) in gated.items():
            b, n = _values(base, w, name), _values(new, w, name)
            if not b or not n:
                continue  # not defined on this workload, or not run
            mb, mn = statistics.median(b), statistics.median(n)
            result = verdict(b, n, better, bound)
            bad |= result == "worse"
            ratio = f"{mn / mb:9.4f}" if mb else f"{'-':>9s}"
            print(f"{w:18s} {name:28s} {mb:12.6g} {mn:12.6g} {ratio}  {result}")
    print()
    print(f"{'workload':18s} {'layer time per round':28s} {'base s':>12s} {'new s':>12s} {'delta s':>10s}")
    for w in (w["name"] for w in spec["workloads"]):
        for name, m in layers.items():
            if m["unit"] != "s" or name.startswith("e2e."):
                continue
            b, n = _values(base, w, name), _values(new, w, name)
            if b and n and (max(b) or max(n)):
                mb, mn = statistics.median(b), statistics.median(n)
                print(f"{w:18s} {name:28s} {mb:12.5f} {mn:12.5f} {mn - mb:+10.5f}")
    if bad:
        print("\nat least one metric is worse than its bound allows")
    return 1 if bad else 0
