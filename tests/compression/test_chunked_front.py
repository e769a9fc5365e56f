"""The chunked batch front: ``compress_many`` and ``estimate_ladder``
cut each same-shape group into chunks of at most ``GROUP_LATTICE_BYTES``
of lattice; ``compress_many`` fans chunks of large blocks out over
threads, the ladder every chunk and, within it, every bound.

None of it may change an output: payloads byte for byte and estimates
field for field are what per-block calls give, whatever the thread
count, group length, shape mix or input order; an invalid block raises
what the one-thread path raises; a call's scratch peaks at one chunk's,
not the group's, and none outlives it; and the usable CPU count caps
how many chunks run at once.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.compression import sz
from repro.compression.sz import (
    FANOUT_MIN_ELEMENTS,
    GROUP_LATTICE_BYTES,
    SZCompressor,
    decompress_many,
)
from repro.util import fanout

THREADS = (1, 2, 4)


def _chunk(side: int) -> int:
    """Blocks per chunk at ``side^3``."""
    return GROUP_LATTICE_BYTES // (8 * side**3)


def _views(side: int, count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0, 1, (side,) * 3), axis=2)
    # cheap distinct blocks: shifted and scaled copies of one walk
    return [np.roll(base, i, axis=0) * (1 + 0.1 * (i % 7)) for i in range(count)]


def _ebs(count: int) -> list[float]:
    return [0.01 * (1 + i % 5) for i in range(count)]


def _probe(comp: SZCompressor, views, ebs) -> list:
    """Each view's estimate at its own bound, read off one ladder of
    the distinct bounds."""
    bounds = sorted(set(ebs))
    ladder = comp.estimate_ladder(views, bounds)
    return [ladder[bounds.index(eb)][i] for i, eb in enumerate(ebs)]


def _cpus(monkeypatch, threads: int) -> None:
    """Pretend the process may use ``threads`` CPUs (the chunker's cut
    and the pool's size), whatever its affinity mask says."""
    monkeypatch.setattr(sz, "usable_cpus", lambda: threads)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: threads)


def _in_fresh_thread(fn):
    """Run ``fn`` in a thread of its own and return its result."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


@pytest.fixture(scope="module")
def pools():
    """Per-block reference payloads and estimates of every view used
    below (the single-block path: no grouping, no chunking, no pool;
    ``estimate`` is the ladder of one view at one bound)."""
    comp = SZCompressor()
    out = {}
    for side in (32, 16):
        views = _views(side, 65 if side == 32 else 66, seed=side)
        ebs = _ebs(len(views))
        out[side] = (
            views,
            ebs,
            [comp.compress(v, e).payloads for v, e in zip(views, ebs)],
            [comp.estimate(v, e) for v, e in zip(views, ebs)],
        )
    return out


class TestSameOutputs:
    @pytest.mark.parametrize("side", [32, 16])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_group_lengths_around_one_chunk(self, pools, side, offset, monkeypatch):
        views, ebs, payloads, estimates = pools[side]
        count = _chunk(side) + offset
        comp = SZCompressor()
        for threads in THREADS:
            _cpus(monkeypatch, threads)
            blocks = comp.compress_many(views[:count], ebs[:count])
            assert [b.payloads for b in blocks] == payloads[:count]
            assert _probe(comp, views[:count], ebs[:count]) == estimates[:count]

    @pytest.mark.parametrize("side", [32, 16])
    @pytest.mark.parametrize("count", [1, 64])
    def test_one_block_and_a_whole_decomposition(self, pools, side, count, monkeypatch):
        views, ebs, payloads, estimates = pools[side]
        comp = SZCompressor()
        for threads in THREADS:
            _cpus(monkeypatch, threads)
            blocks = comp.compress_many(views[:count], ebs[:count])
            assert [b.payloads for b in blocks] == payloads[:count]
            assert _probe(comp, views[:count], ebs[:count]) == estimates[:count]

    def test_mixed_shapes_in_shuffled_order(self, pools, monkeypatch):
        big, big_ebs, big_payloads, big_est = pools[32]
        small, small_ebs, small_payloads, small_est = pools[16]
        rng = np.random.default_rng(3)
        # 11 big + 5 small + 3 odd blocks, interleaved at random
        items = (
            [(big[i], big_ebs[i], big_payloads[i], big_est[i]) for i in range(11)]
            + [(small[i], small_ebs[i], small_payloads[i], small_est[i]) for i in range(5)]
        )
        comp = SZCompressor()
        for k, shape in enumerate([(30, 31, 32), (7, 9), (40,)]):
            v = np.linspace(0.0, 1.0 + k, int(np.prod(shape))).reshape(shape) ** 2
            items.append((v, 0.02, comp.compress(v, 0.02).payloads, comp.estimate(v, 0.02)))
        order = rng.permutation(len(items))
        views = [items[i][0] for i in order]
        ebs = [items[i][1] for i in order]
        for threads in THREADS:
            _cpus(monkeypatch, threads)
            blocks = comp.compress_many(views, ebs)
            assert [b.payloads for b in blocks] == [items[i][2] for i in order]
            assert [b.shape for b in blocks] == [v.shape for v in views]
            assert _probe(comp, views, ebs) == [items[i][3] for i in order]

    def test_more_threads_than_cores_and_a_short_switch_interval(self, pools, monkeypatch):
        views, ebs, payloads, estimates = pools[32]
        comp = SZCompressor()
        serial = [sz.decompress(b) for b in comp.compress_many(views[:9], ebs[:9])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        _cpus(monkeypatch, 16)
        try:
            blocks = comp.compress_many(views, ebs)
            got = _probe(comp, views, ebs)
            recons = sz.decompress_many(blocks[:9])
        finally:
            sys.setswitchinterval(interval)
        assert [b.payloads for b in blocks] == payloads
        assert got == estimates
        assert all(np.array_equal(a, b) for a, b in zip(recons, serial, strict=True))

    def test_one_view_at_several_bounds(self, pools, monkeypatch):
        """The calibration probe: one partition, five bounds."""
        (view,) = pools[32][0][:1]
        ebs = [0.0025, 0.005, 0.01, 0.02, 0.04]
        comp = SZCompressor()
        single = [[comp.estimate(view, e)] for e in ebs]
        for threads in THREADS:
            _cpus(monkeypatch, threads)
            assert comp.estimate_ladder([view], ebs) == single


class TestErrors:
    @pytest.mark.parametrize("threads", THREADS)
    def test_a_nan_in_a_later_chunk(self, threads, monkeypatch):
        views = [v.copy() for v in _views(32, 2 * _chunk(32) + 3)]
        views[-2][5, 6, 7] = np.nan
        ebs = _ebs(len(views))
        comp = SZCompressor()
        _cpus(monkeypatch, threads)
        with pytest.raises(ValueError, match=r"^data contains non-finite values \(NaN or Inf\)$"):
            comp.compress_many(views, ebs)
        with pytest.raises(ValueError, match=r"^data contains non-finite values \(NaN or Inf\)$"):
            comp.estimate_ladder(views, ebs[:2])

    @pytest.mark.parametrize("threads", THREADS)
    def test_a_non_positive_value_in_a_later_chunk_under_pw_rel(self, threads, monkeypatch):
        views = [np.abs(v) + 1.0 for v in _views(32, _chunk(32) + 2)]
        views[-1][0, 0, 0] = 0.0
        _cpus(monkeypatch, threads)
        with pytest.raises(ValueError, match="strictly positive"):
            SZCompressor(mode="pw_rel").compress_many(views, _ebs(len(views)))


class TestMemory:
    """A whole 64 x 32^3 decomposition on one CPU: each entry point's
    scratch peaks at about one chunk's (8 blocks), not the group's
    (70+ MB), and nothing outlives the call — no thread, the caller's
    or a fresh one, keeps scratch once the outputs are dropped."""

    PEAK = 12 << 20
    LEFT = 100 << 10

    def test_each_entry_point_peaks_at_one_chunk_and_keeps_nothing(self, monkeypatch):
        views = _views(32, 64)
        ebs = _ebs(64)
        comp = SZCompressor()
        _cpus(monkeypatch, 1)
        blocks = comp.compress_many(views, ebs)  # also warms module-level state
        for view, eb in zip(views, ebs):
            comp.estimate(view, eb)
        comp.estimate_ladder(views, ebs[:3])
        dsts = [np.empty(v.shape) for v in views]
        decompress_many(blocks, out=dsts)

        def run():
            peaks = []
            tracemalloc.start()
            try:
                for call in (
                    lambda: comp.compress_many(views, ebs),
                    lambda: [comp.estimate(v, e) for v, e in zip(views, ebs)],
                    lambda: comp.estimate_ladder(views, ebs[:3]),
                    lambda: decompress_many(blocks, out=dsts),
                ):
                    tracemalloc.reset_peak()
                    call()  # the output is dropped here
                    peaks.append(tracemalloc.get_traced_memory()[1])
                return peaks, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        peaks, left = _in_fresh_thread(run)
        assert max(peaks) < self.PEAK, peaks
        assert left < self.LEFT, left


class TestUsableCpusIsACap:
    @pytest.fixture()
    def chunks(self, monkeypatch):
        """Every compress / ladder chunk pass: how many ran, the most
        that ran at once, and the threads they ran on."""
        seen = SimpleNamespace(count=0, now=0, peak=0, threads=set())
        lock = threading.Lock()

        def counted(real):
            def run(*args, **kwargs):
                with lock:
                    seen.count += 1
                    seen.now += 1
                    seen.peak = max(seen.peak, seen.now)
                    seen.threads.add(threading.get_ident())
                try:
                    return real(*args, **kwargs)
                finally:
                    with lock:
                        seen.now -= 1

            return run

        for name in ("_compress_batch", "_ladder_chunk"):
            monkeypatch.setattr(SZCompressor, name, counted(getattr(SZCompressor, name)))
        # an 8-core node
        _cpus(monkeypatch, 8)
        return seen

    def test_two_usable_cpus_run_at_most_two_chunks_at_once(self, chunks, monkeypatch):
        views = _views(32, 24)
        assert views[0].size >= FANOUT_MIN_ELEMENTS
        _cpus(monkeypatch, 2)
        SZCompressor().compress_many(views, _ebs(24))
        assert chunks.count == 3 and chunks.peak <= 2

    def test_one_usable_cpu_never_leaves_the_caller(self, chunks, monkeypatch):
        views = _views(32, 24)
        _cpus(monkeypatch, 1)
        SZCompressor().compress_many(views, _ebs(24))
        SZCompressor().estimate_ladder(views, [0.01, 0.02])
        # three chunks of eight per call, bounds and all in the caller
        assert chunks.count == 6 and chunks.threads == {threading.get_ident()}

    def test_the_default_is_the_usable_cpu_count(self, chunks):
        views = _views(32, 24)
        SZCompressor().compress_many(views, _ebs(24))
        SZCompressor().estimate_ladder(views, [0.01, 0.02])
        # 24 blocks: eight chunks of three to compress, one per CPU; the
        # ladder cuts by the lattice budget alone, three chunks of eight
        # (its bounds fan out within each); at most eight at once
        assert chunks.count == 11 and chunks.peak <= 8


class TestSpans:
    def test_chunk_spans_nest_under_the_callers_span(self, monkeypatch):
        views = _views(32, 20)
        _cpus(monkeypatch, 2)
        with telemetry.armed() as tracer:
            with tracer.span("compress") as outer:
                SZCompressor().compress_many(views, _ebs(20))
            with tracer.span("probe") as probe:
                SZCompressor().estimate_ladder(views, [0.01])
        records = tracer.export_spans()
        by_id = {r["span_id"]: r for r in records}
        stages = [r for r in records if r["name"].startswith("sz.")]
        assert stages and all(r["parent_id"] is not None for r in stages)
        maps = [r for r in stages if r["name"] == "sz.map"]
        # three chunks per call (20 blocks, at most 8 per chunk)
        assert [r["parent_id"] for r in maps].count(outer.span_id) == 3
        (rq,) = [r for r in records if r["name"] == "rq.probe"]
        assert rq["parent_id"] == probe.span_id
        # the ladder's three chunks: one map each, one divide at its bound
        assert [by_id[r["parent_id"]]["name"] for r in maps].count("rq.probe") == 6
