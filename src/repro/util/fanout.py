"""The one thread fan-out: an ordered map over a transient pool.

Lives in ``util``, below the SZ chunker (``repro.compression.sz.
_run_chunks``, its one caller), so ``compression`` need not reach up
into ``parallel`` for ten lines.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

__all__ = ["thread_map", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform reports one (an in situ rank pinned to two cores sees 2,
    not the node's count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def thread_map(fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
    """Apply ``fn`` to every item over at most :func:`usable_cpus`
    threads, preserving order; a lone item, or a single usable CPU,
    runs in the calling thread.  Each call runs in a copy of
    the caller's :mod:`contextvars` context, so telemetry spans opened in
    a worker nest under the caller's open span.  The first exception any
    call raises is re-raised here."""
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, fn, item) for item in items
        ]
        return [f.result() for f in futures]
