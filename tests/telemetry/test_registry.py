"""MetricsRegistry: get-or-create semantics, kind conflicts, and the
deterministic-histogram contract."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture
def registry():
    return telemetry.MetricsRegistry()


class TestGetOrCreate:
    def test_same_name_same_object(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", [1.0]) is registry.histogram("h", [1.0])

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x", [1.0])

    def test_histogram_edge_conflict_raises(self, registry):
        registry.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError, match="edges"):
            registry.histogram("h", [1.0, 3.0])


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("hits").inc(-1)


class TestGauge:
    def test_set_overwrites(self, registry):
        g = registry.gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5
        assert g.snapshot() == {"kind": "gauge", "name": "depth", "value": 1.5}


class TestHistogram:
    def test_edges_frozen_and_validated(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("empty", [])
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", [2.0, 1.0])

    def test_observe_buckets_and_overflow(self, registry):
        h = registry.histogram("lat", [0.1, 1.0])
        for v in (0.05, 0.1, 0.5, 2.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [2, 1, 2]  # <=0.1, <=1.0, overflow
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(102.65)
        assert snap["edges"] == [0.1, 1.0]

    def test_snapshot_is_pure_function_of_observations(self, registry):
        a = telemetry.MetricsRegistry().histogram("h", [1.0, 2.0])
        b = telemetry.MetricsRegistry().histogram("h", [1.0, 2.0])
        for v in (0.5, 1.5, 3.0):
            a.observe(v)
            b.observe(v)
        assert a.snapshot() == b.snapshot()


class TestRegistryExports:
    def test_snapshot_sorted_by_name(self, registry):
        registry.counter("zebra").inc()
        registry.gauge("alpha").set(1)
        registry.counter("mid").inc(2)
        names = [m["name"] for m in registry.snapshot()]
        assert names == sorted(names) == ["alpha", "mid", "zebra"]

    def test_reset(self, registry):
        registry.counter("a").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot() == []


class TestModuleState:
    def test_process_registry_survives_disarm(self):
        telemetry.get_registry().counter("kept").inc()
        telemetry.disarm()
        assert telemetry.get_registry().counter("kept").value == 1

    def test_armed_resets_metrics_by_default(self):
        telemetry.get_registry().counter("stale").inc()
        with telemetry.armed():
            assert len(telemetry.get_registry()) == 0

    def test_armed_can_keep_metrics(self):
        telemetry.get_registry().counter("kept").inc()
        with telemetry.armed(reset_metrics=False):
            assert telemetry.get_registry().counter("kept").value == 1
