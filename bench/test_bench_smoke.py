"""Smoke test of the benchmark itself (collected by the tier-1 run).

Runs every workload at ``--scale smoke`` through the real entry point and
checks the contract between the code and ``BENCHMARK.json``: the declared
names are exactly the emitted ones, no op fails, the deterministic metrics
agree between the traced and the untraced pass, and a reconstruction
pushed past its bound is counted as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from bench import ROOT
from bench.__main__ import main
from bench.harness import Recorder, contract_violations
from bench.runner import declared, driver_line


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke run of the whole suite; returns (exit status, output dir)."""
    out = tmp_path_factory.mktemp("bench")
    return main(["run", "--scale", "smoke", "--rounds", "1", "--out", str(out)]), out


def test_suite_emits_exactly_the_declared_names(suite):
    status, out = suite
    spec = declared()
    result = json.loads((out / "result.json").read_text())
    assert result["errors"] == []  # includes traced == untraced on deterministic metrics
    assert status == 0
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted = set()
    for name, workload in result["workloads"].items():
        metrics = workload["metrics"]
        assert end_to_end <= set(metrics), f"{name} lacks {end_to_end - set(metrics)}"
        assert all(metrics[m]["value"] != 0 for m in end_to_end), name
        assert metrics["e2e.failed_ops_share"]["value"] == 0, workload
        assert workload["failed"] == 0 and workload["attempted"] > 0
        assert (out / f"{name}.trace.jsonl").stat().st_size > 0
        emitted |= set(metrics)
    assert emitted == end_to_end | per_layer
    provenance = result["provenance"]
    assert provenance["seed"] == 42 and provenance["host"]["kernels_auto"]
    assert not list(ROOT.glob(".bench_scratch-*"))


def test_every_pass_yields_the_contract_line(suite):
    _, out = suite
    spec = declared()
    for workload in spec["workloads"]:
        for kind, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            detail = json.loads((out / f"{workload['name']}.{kind}.json").read_text())
            line = json.loads(driver_line(detail))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
            assert list(line["metrics"]) == [m["name"] for m in spec[section]]
            for m in spec[section]:
                assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_one_pass_prints_the_contract_line_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "sweep-128", "--scale", "smoke",
         "--rounds", "1", "--seed", "7", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in declared()["end_to_end"]]


def test_corrupted_reconstruction_is_a_failed_op():
    rng = np.random.default_rng(0)
    parts = [rng.normal(size=(8, 8, 8)).astype(np.float32) for _ in range(4)]
    bounds = [0.01] * 4
    recon = [p.astype(np.float64) + 0.005 for p in parts]
    rec = Recorder()
    with rec.op("field"):
        for bad in contract_violations("abs", parts, recon, bounds):
            rec.fail(rec.op_key("field"), bad)
    assert rec.attempted == 1 and not rec.failed
    recon[2][1, 2, 3] += 0.02  # one value pushed past its bound
    with rec.op("field"):
        for bad in contract_violations("abs", parts, recon, bounds):
            rec.fail(rec.op_key("field"), bad)
    with rec.op("crash"):
        raise RuntimeError("an op that raises is a failed op too")
    assert rec.attempted == 3 and len(rec.failed) == 2
    assert "partition 2" in rec.failed["round0:field"][0]
