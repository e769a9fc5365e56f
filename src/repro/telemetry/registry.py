"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately boring: three primitive kinds, string
names, plain-float values, and a snapshot method that returns sorted
plain dicts.  Two properties matter more than features:

- **Deterministic exports.**  Histograms take their bucket edges at
  creation time and never grow them, so two runs that observe the same
  values export byte-identical text (see :mod:`repro.telemetry.export`).
  Snapshot ordering is by sorted metric name, never insertion order.
- **Cheap when disarmed.**  Code paths never consult the registry
  directly in hot loops; they go through :func:`repro.telemetry.enabled`
  first (see the package docstring for the idiom).  Metric objects
  themselves are one attribute update per observation.

Metric instances must come from a :class:`MetricsRegistry` (normally the
process-wide one via :func:`repro.telemetry.get_registry`); constructing
``Counter``/``Gauge``/``Histogram`` directly outside this package is
flagged by lint rule RL012, because ad-hoc module-level metrics are
invisible to the exporters and resist test resets.
"""

from __future__ import annotations

import threading
from typing import Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count (events, cache hits, retries).
    Increments are atomic: items of one fan-out may count concurrently."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount!r})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """Last-observed value (pool size, current eb scale, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, object]:
        return {"kind": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket histogram; edges are frozen at creation.

    ``edges`` are the *upper* bounds of the finite buckets (strictly
    increasing); one implicit overflow bucket catches everything above
    the last edge.  Because the edges never adapt to the data, exports
    are a pure function of the observed values — the determinism the
    whole telemetry layer promises.
    """

    __slots__ = ("name", "edges", "bucket_counts", "count", "total")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        edge_list = [float(e) for e in edges]
        if not edge_list:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edge_list, edge_list[1:])):
            raise ValueError(f"histogram {name!r} edges must be strictly increasing")
        self.name = name
        self.edges: tuple[float, ...] = tuple(edge_list)
        self.bucket_counts: list[int] = [0] * (len(edge_list) + 1)
        self.count: int = 0
        self.total: float = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.edges)  # overflow bucket unless an edge catches it
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> dict[str, object]:
        return {
            "kind": "histogram",
            "name": self.name,
            "edges": list(self.edges),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Name-keyed factory and holder for the process's metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, so call sites don't need
    module-level caching (which RL012 would flag anyway).  Re-requesting
    a name as a different kind — or a histogram with different edges —
    is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        hist = self._get_or_create(name, Histogram, lambda: Histogram(name, edges))
        if hist.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {hist.edges}"
            )
        return hist

    def _get_or_create(self, name, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict[str, object]]:
        """All metrics as plain dicts, sorted by name (deterministic)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [m.snapshot() for m in metrics]

    def reset(self) -> None:
        """Drop every metric (test isolation; not used on live paths)."""
        with self._lock:
            self._metrics.clear()
