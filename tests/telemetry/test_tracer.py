"""Tracer: nesting, the disarmed null fast path, and the module-level
arm/disarm switch."""

from __future__ import annotations

import threading

from repro import telemetry
from repro.telemetry import tracer as tracer_mod
from repro.util.fanout import thread_map


class TestNullFastPath:
    def test_disarmed_by_default(self):
        assert telemetry.enabled() is False
        assert isinstance(telemetry.get_tracer(), telemetry.NullTracer)

    def test_null_span_is_shared_singleton(self):
        tracer = telemetry.get_tracer()
        a = tracer.span("x", attr=1)
        b = tracer.span("y")
        assert a is b  # no allocation per call

    def test_null_span_noop_protocol(self):
        with telemetry.get_tracer().span("x") as span:
            span.set_attr("k", "v")
        assert telemetry.get_tracer().export_spans() == []

    def test_null_tracer_has_no_adopt(self):
        assert not hasattr(telemetry.get_tracer(), "adopt")
        assert not hasattr(telemetry.Tracer, "adopt")


class TestArmDisarm:
    def test_arm_installs_fresh_tracer(self):
        t1 = telemetry.arm()
        assert telemetry.enabled() is True
        assert telemetry.get_tracer() is t1
        t2 = telemetry.arm()
        assert t2 is not t1
        assert telemetry.get_tracer() is t2

    def test_disarm_restores_null(self):
        telemetry.arm()
        telemetry.disarm()
        assert telemetry.enabled() is False

    def test_armed_context_disarms_on_exception(self):
        try:
            with telemetry.armed() as tracer:
                with tracer.span("boom"):
                    raise RuntimeError("x")
        except RuntimeError:
            pass
        assert telemetry.enabled() is False
        # The span still closed and is exportable from the reference.
        assert [s["name"] for s in tracer.export_spans()] == ["boom"]


class TestNesting:
    def test_parent_links(self):
        with telemetry.armed() as tracer:
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
                with tracer.span("sibling") as sibling:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id

    def test_span_ids_unique_and_times_ordered(self):
        with telemetry.armed() as tracer:
            for i in range(5):
                with tracer.span("s", i=i):
                    pass
        records = tracer.export_spans()
        ids = [r["span_id"] for r in records]
        assert len(set(ids)) == 5
        starts = [r["start"] for r in records]
        assert starts == sorted(starts)
        assert all(r["end"] >= r["start"] for r in records)

    def test_attrs_and_set_attr(self):
        with telemetry.armed() as tracer:
            with tracer.span("s", blocks=8) as span:
                span.set_attr("codec", "zlib")
        rec = tracer.export_spans()[0]
        assert rec["attrs"] == {"blocks": 8, "codec": "zlib"}
        assert rec["track"] == "main"

    def test_per_thread_parent_stacks(self):
        # Two threads nest independently: neither sees the other's
        # open span as a parent (a new thread starts a fresh context).
        with telemetry.armed() as tracer:
            barrier = threading.Barrier(2)

            def rank(name):
                with tracer.span(name):
                    barrier.wait()
                    with tracer.span(f"{name}.child"):
                        pass

            threads = [
                threading.Thread(target=rank, args=(f"rank{i}",)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        by_name = {r["name"]: r for r in tracer.export_spans()}
        for i in range(2):
            assert by_name[f"rank{i}"]["parent_id"] is None
            assert (
                by_name[f"rank{i}.child"]["parent_id"]
                == by_name[f"rank{i}"]["span_id"]
            )

    def test_a_raw_thread_starts_with_an_empty_stack(self):
        # Even while the spawning thread has a span open: a rank is a root.
        with telemetry.armed() as tracer:
            with tracer.span("caller"):
                def rank():
                    with tracer.span("rank"):
                        pass

                t = threading.Thread(target=rank)
                t.start()
                t.join()
        by_name = {r["name"]: r for r in tracer.export_spans()}
        assert by_name["rank"]["parent_id"] is None

    def test_thread_map_items_nest_under_the_callers_span(self, monkeypatch):
        """Wherever an item runs — a pool thread, or the caller, which
        works through items too — its spans nest under the caller's open
        span, and its pushes never reach the caller's own stack."""
        from repro.util import fanout

        monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)

        def work(i):
            with tracer.span("worker", i=i):
                with tracer.span("worker.step"):
                    return threading.get_ident()

        with telemetry.armed() as tracer:
            with tracer.span("caller") as caller:
                thread_map(work, range(4))
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("after") as after:
                pass
        records = tracer.export_spans()
        workers = [r for r in records if r["name"] == "worker"]
        assert sorted(r["attrs"]["i"] for r in workers) == [0, 1, 2, 3]
        assert {r["parent_id"] for r in workers} == {caller.span_id}
        worker_ids = {r["span_id"] for r in workers}
        steps = [r for r in records if r["name"] == "worker.step"]
        assert len(steps) == 4 and {r["parent_id"] for r in steps} <= worker_ids
        # the caller's stack is as it left it, during the span and after
        assert inner.parent_id == caller.span_id
        assert after.parent_id is None


class TestClock:
    def test_spans_read_the_one_clock(self, monkeypatch):
        """Every span's start and end is a ``util.timer.monotonic`` read:
        with a scripted clock the durations are exactly the script's."""
        ticks = iter([10.0, 10.5, 11.25, 20.0])
        monkeypatch.setattr(tracer_mod, "monotonic", lambda: next(ticks))
        tracer = tracer_mod.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s["name"]: (s["start"], s["end"]) for s in tracer.export_spans()}
        assert spans == {"outer": (10.0, 20.0), "inner": (10.5, 11.25)}
