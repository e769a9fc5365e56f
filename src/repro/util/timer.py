"""Lightweight wall-clock timing used for overhead accounting.

The paper's §4.3 claims the adaptive machinery adds ~1% overhead relative
to compression itself (mean extraction 1-1.5%, effective-cell counting up
to 5%).  :class:`TimingBreakdown` accumulates named phases so the in situ
pipeline can report exactly that ratio.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["Timer", "TimingBreakdown", "monotonic"]


def monotonic() -> float:
    """The repo's one true monotonic clock (seconds, arbitrary epoch).

    Every timing consumer — :class:`Timer`, :class:`TimingBreakdown`,
    ``repro.telemetry`` spans — reads wall time through this function so
    lint rule RL005 (wall-clock calls confined to ``util.timer``) stays
    authoritative over the whole stack.
    """
    return time.perf_counter()


class Timer:
    """Context-manager stopwatch.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("Timer is not reentrant: __enter__ called while running")
        self._start = monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is None:
            raise RuntimeError("Timer.__exit__ called without a matching __enter__")
        self.elapsed = monotonic() - self._start
        self._start = None


class TimingBreakdown:
    """Accumulate wall-clock time per named phase.

    Phases can be entered repeatedly; durations add up.  ``fraction`` and
    ``overhead_ratio`` provide the two summaries the experiments print.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = monotonic()
        try:
            yield
        finally:
            self.totals[name] += monotonic() - start
            self.counts[name] += 1

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against ``name`` without timing anything."""
        if seconds < 0:
            raise ValueError(f"cannot record negative duration {seconds!r}")
        self.totals[name] += seconds
        self.counts[name] += 1

    @property
    def total(self) -> float:
        # fsum: exactly rounded, so the total is independent of the
        # order ranks/phases merged in — sum() would drift by an ulp.
        return math.fsum(self.totals.values())

    def fraction(self, name: str) -> float:
        """Share of total time spent in ``name`` (0 if nothing recorded)."""
        total = self.total
        return self.totals.get(name, 0.0) / total if total > 0 else 0.0

    def overhead_ratio(self, overhead_phase: str, base_phase: str) -> float:
        """Time in ``overhead_phase`` relative to ``base_phase``.

        This is the paper's headline metric: feature-extraction time as a
        percentage of compression time.
        """
        base = self.totals.get(base_phase, 0.0)
        if base <= 0:
            raise ValueError(f"no time recorded for base phase {base_phase!r}")
        return self.totals.get(overhead_phase, 0.0) / base

    def merge(self, other: "TimingBreakdown") -> None:
        """Fold another breakdown (e.g. from a different rank) into this one."""
        for name, seconds in other.totals.items():
            self.totals[name] += seconds
        for name, count in other.counts.items():
            self.counts[name] += count

    def as_dict(self) -> dict[str, float]:
        return dict(self.totals)

    def phase_stats(self) -> dict[str, dict[str, float | int]]:
        """Counts-preserving export: ``{phase: {"seconds", "count"}}``.

        ``as_dict()`` keeps its historical seconds-only shape for existing
        consumers; reports that also want the number of times each phase
        ran (per-snapshot call counts, amortized cost) use this one.
        """
        return {
            name: {"seconds": self.totals[name], "count": self.counts.get(name, 0)}
            for name in self.totals
        }
