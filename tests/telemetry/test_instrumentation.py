"""Telemetry threaded through the stack — and strictly out-of-band.

The armed/unarmed ledger byte-identity test here is the PR's core
guarantee: arming telemetry on a streamed run must not perturb a single
ledger byte, so replay stays bitwise-faithful whether or not anyone was
watching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.compression.sz import SZCompressor
from repro.foresight.evaluator import FieldReference
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator
from repro.stream.controller import InSituController, replay_ledger
from repro.stream.source import SnapshotSequence


@pytest.fixture(scope="module")
def sim():
    return NyxSimulator(shape=(16, 16, 16), box_size=16.0, seed=7, sigma_delta0=2.5)


@pytest.fixture(scope="module")
def dec():
    return BlockDecomposition((16, 16, 16), blocks=2)


def _stream(sim, dec, ledger_path, n_snapshots=4):
    snaps = [sim.snapshot(z=z) for z in np.linspace(2.0, 0.5, n_snapshots)]
    ctl = InSituController(dec, ledger=ledger_path, retain_results=False)
    ctl.run(SnapshotSequence(snaps))
    return ctl


class TestOutOfBand:
    def test_armed_ledger_byte_identical_to_unarmed(self, sim, dec, tmp_path):
        with telemetry.armed() as tracer:
            _stream(sim, dec, tmp_path / "armed.jsonl")
        _stream(sim, dec, tmp_path / "unarmed.jsonl")

        armed_bytes = (tmp_path / "armed.jsonl").read_bytes()
        assert armed_bytes == (tmp_path / "unarmed.jsonl").read_bytes()
        assert len(tracer.export_spans()) > 0  # telemetry actually recorded

    def test_replay_of_armed_run(self, sim, dec, tmp_path):
        with telemetry.armed():
            ctl = _stream(sim, dec, tmp_path / "run.jsonl")
        decisions = replay_ledger(ctl.ledger)
        assert {d.snapshot_index for d in decisions} == {0, 1, 2, 3}

    def test_armed_compress_payloads_identical(self, sim):
        data = sim.snapshot(z=1.0)["temperature"]
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        comp = SZCompressor()
        plain = comp.compress(data, eb).payloads
        with telemetry.armed():
            armed = comp.compress(data, eb).payloads
        assert armed == plain


class TestStackInstrumentation:
    def test_sz_stage_spans(self, sim):
        data = sim.snapshot(z=1.0)["temperature"]
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        comp = SZCompressor()
        with telemetry.armed() as tracer:
            comp.compress(data, eb)
        names = {s["name"] for s in tracer.export_spans()}
        assert names == {
            "sz.map",
            "sz.quantize",
            "sz.lorenzo",
            "sz.residual",
            "sz.side_channels",
            "sz.entropy",
        }

    @pytest.mark.parametrize(
        "eb, width", [(1e-3, 32), (1e-12, 64)], ids=["int32", "int64"]
    )
    @pytest.mark.parametrize("probe", [False, True], ids=["compress", "estimate"])
    def test_quantize_span_names_the_lattice_width(self, sim, eb, width, probe):
        """``sz.quantize`` carries ``lattice`` = 32 where the rounded
        range fits ``|q| < 2**27``, else 64; the other spans carry none."""
        data = sim.snapshot(z=1.0)["temperature"].astype(np.float64)
        eb *= float(np.ptp(data))
        comp = SZCompressor()
        with telemetry.armed() as tracer:
            (comp.estimate if probe else comp.compress)(data, eb)
        spans = tracer.export_spans()
        (quantize,) = [s for s in spans if s["name"] == "sz.quantize"]
        assert quantize["attrs"]["lattice"] == width
        assert all("lattice" not in s["attrs"] for s in spans if s is not quantize)

    def test_an_unrepresentable_lattice_names_no_width(self, sim):
        data = sim.snapshot(z=1.0)["temperature"].astype(np.float64)
        with telemetry.armed() as tracer:
            with pytest.raises(ValueError, match="exceeds int64 range"):
                SZCompressor().compress(data, float(np.ptp(data)) * 1e-30)
        (quantize,) = [s for s in tracer.export_spans() if s["name"] == "sz.quantize"]
        assert "lattice" not in quantize["attrs"]

    def test_stream_spans_carry_ledger_seq_window(self, sim, dec, tmp_path):
        with telemetry.armed() as tracer:
            _stream(sim, dec, tmp_path / "run.jsonl", n_snapshots=2)
        spans = tracer.export_spans()
        snaps = [s for s in spans if s["name"] == "stream.snapshot"]
        assert len(snaps) == 2
        for rec in snaps:
            attrs = rec["attrs"]
            assert attrs["seq_last"] >= attrs["seq_first"]
        # Consecutive snapshots cover disjoint, increasing seq windows.
        assert snaps[1]["attrs"]["seq_first"] > snaps[0]["attrs"]["seq_last"]
        fields = [s for s in spans if s["name"] == "stream.field"]
        assert {s["attrs"]["field"] for s in fields} >= {"temperature"}
        # Field spans nest under their snapshot span.
        snap_ids = {s["span_id"] for s in snaps}
        assert all(s["parent_id"] in snap_ids for s in fields)

    def test_rank_loop_spans(self, sim, dec):
        """``bench/harness.py`` maps ``backend.snapshot``: the rank loop's
        three phases nest under it, in protocol order, on one track."""
        from repro.core.pipeline import AdaptiveCompressionPipeline
        from repro.models.rate_model import RateModel

        pipe = AdaptiveCompressionPipeline(
            RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
        )
        with telemetry.armed() as tracer:
            pipe.run(sim.snapshot(z=1.0)["temperature"], dec, eb_avg=1.0)
        spans = tracer.export_spans()
        (snap,) = [s for s in spans if s["name"] == "backend.snapshot"]
        assert snap["parent_id"] is None
        assert snap["attrs"] == {"ranks": dec.n_partitions}
        phases = [s["name"] for s in spans if s["parent_id"] == snap["span_id"]]
        assert phases == ["features", "optimize", "compress"]
        assert {s["track"] for s in spans} == {"main"}

    def test_foresight_cache_counters(self, sim):
        data = sim.snapshot(z=1.0)["temperature"]
        with telemetry.armed():
            ref = FieldReference(data)
            ref.moments
            ref.moments
            snap = {m["name"]: m["value"] for m in telemetry.get_registry().snapshot()}
        assert snap["foresight.cache.moments.misses"] == 1
        assert snap["foresight.cache.moments.hits"] == 1

    def test_disarmed_records_nothing(self, sim):
        data = sim.snapshot(z=1.0)["temperature"]
        eb = float(np.ptp(data.astype(np.float64))) * 1e-3
        SZCompressor().compress(data, eb)
        assert telemetry.get_tracer().export_spans() == []
        assert telemetry.get_registry().snapshot() == []
