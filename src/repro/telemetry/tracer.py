"""Span-based tracing with a zero-overhead disarmed default.

A :class:`Span` is a named interval with a process-unique id, a parent
link, and free-form attributes; a :class:`Tracer` hands them out and
collects them as they close.  Nesting is tracked per
:mod:`contextvars` context: a thread starts with an empty parent stack
(its spans are roots), while work handed to
:func:`repro.util.fanout.thread_map` runs in a copy of the caller's
context, so spans opened there nest under the caller's.

Clock discipline: every timestamp comes from
:func:`repro.util.timer.monotonic`, the repo's single RL005-sanctioned
wall-clock entry point.  Spans are the repository's only record of
time: the rank loop's ``features``/``optimize``/``compress`` spans are
what :func:`repro.telemetry.report.overhead_summary` reads the §4.3
overhead ratio from, and what ``repro.cli compress`` prints.

The disarmed path is a shared singleton ``_NullSpan`` whose
``__enter__``/``__exit__``/``set_attr`` do nothing — no allocation, no
clock read, no branch beyond the method dispatch — which is what makes
``with tracer.span(...)`` safe to leave permanently in compression hot
loops.  Spans must come from a tracer (normally
:func:`repro.telemetry.get_tracer`); constructing ``Span`` directly
outside this package is flagged by lint rule RL012.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Any

from repro.util.timer import monotonic

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One named interval.  Created by :meth:`Tracer.span`, used as a
    context manager; times are filled in on enter/exit."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs", "track",
        "_tracer", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict[str, Any],
        track: str,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.track = track
        self.start: float = 0.0
        self.end: float = 0.0
        self._token: contextvars.Token | None = None  # set while open

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = monotonic()
        self._tracer._pop(self)

    def to_record(self) -> dict[str, Any]:
        """Plain-dict form (the exporters' wire format)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "track": self.track,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.end - self.start:.6f}s)"
        )


class _NullSpan:
    """Shared do-nothing span: the entire cost of disarmed tracing."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disarmed tracer: every ``span()`` returns the one null span."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def export_spans(self) -> list[dict[str, Any]]:
        return []


#: The process-wide disarmed tracer (what ``get_tracer()`` returns by
#: default).  Stateless, so one instance serves everyone.
NULL_TRACER = NullTracer()


class Tracer:
    """Armed tracer: allocates ids, tracks per-context nesting, collects
    finished spans in completion order."""

    enabled = True

    def __init__(self, track: str = "main") -> None:
        self.track = track
        self._next_id = 0
        self._lock = threading.Lock()
        # The open spans, innermost last, as an immutable tuple: a copied
        # context shares the caller's stack without being able to change it.
        self._stack: contextvars.ContextVar[tuple[Span, ...]] = contextvars.ContextVar(
            "repro.telemetry.span_stack", default=()
        )
        self._finished: list[Span] = []

    # -- span lifecycle ------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new child of the current context's innermost open span."""
        stack = self._stack.get()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, parent_id, name, attrs, self.track)

    def _push(self, span: Span) -> None:
        span._token = self._stack.set(self._stack.get() + (span,))

    def _pop(self, span: Span) -> None:
        self._stack.reset(span._token)
        with self._lock:
            self._finished.append(span)

    # -- collection ----------------------------------------------------
    @property
    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def export_spans(self) -> list[dict[str, Any]]:
        """Finished spans as plain dicts (the exporters' wire format),
        ordered by start time then id for determinism."""
        with self._lock:
            spans = list(self._finished)
        return [s.to_record() for s in sorted(spans, key=lambda s: (s.start, s.span_id))]
