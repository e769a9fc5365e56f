"""The one thread fan-out: an ordered map over a transient pool.

Lives below every package that uses it — the compressors' entropy and
decode fan-outs and :class:`repro.parallel.backends.ThreadBackend` — so
``compression`` need not reach up into ``parallel`` for ten lines.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

__all__ = ["thread_map"]


def thread_map(fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
    """Apply ``fn`` to every item over at most one thread per CPU,
    preserving order; a lone item runs in the calling thread.  The
    first exception any call raises is re-raised here."""
    items = list(items)
    if len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(len(items), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
