"""The one thread fan-out: an ordered map over one persistent pool that
the caller works in.

Lives in ``util``, below its callers — the SZ chunker
(``repro.compression.sz._run_chunks``), the bound sweep
(``repro.foresight.sweep.run_sweep``) and the stream controller's
field steps (``repro.stream.controller``) — so ``compression`` need
not reach up into ``parallel``.

The pool is made once per process, on first use: ``usable_cpus() - 1``
threads (named ``repro-fanout_<i>``) that live as long as the process.
They keep nothing between items: each compress, probe or decode chunk
allocates its own scratch and frees it when it returns.  A call posts
at most one helper task per spare CPU; the caller and the helpers
claim items from one shared counter, so the caller always works and
never waits on an item it could claim itself.  That
is what makes nesting safe: a call made inside a pool item, with every
worker busy, runs its own items and returns.

That pool is the process's only parallelism.  Importing this module
sets the OpenBLAS that NumPy loaded to one thread, once, for the whole
process: its own pool would otherwise run beside this one, unbudgeted
by :func:`usable_cpus`, its threads spinning after every ``@`` / ``dot``
/ ``matmul`` / ``polyfit`` a pool item makes, and a threaded ``ddot``
splits its sum, so a reduction's last bits would follow the host's CPU
count.  :func:`blas_threads` reads the setting back.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

__all__ = ["blas_threads", "thread_map", "usable_cpus"]

#: Name prefix of the pool's threads.
POOL_THREAD_PREFIX = "repro-fanout"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform reports one (an in situ rank pinned to two cores sees 2,
    not the node's count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


#: ``(set, get)`` thread-count symbols of the OpenBLAS builds NumPy
#: ships or links: scipy-openblas's 64-bit-integer build, a plain
#: 64-bit-integer build, a plain build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _one_blas_thread() -> Callable[[], int] | None:
    """Set the OpenBLAS NumPy loaded to one thread; its thread-count
    getter, or ``None`` when NumPy's BLAS is not an OpenBLAS this can
    reach (the setting is then left alone).  The symbols are looked up
    through NumPy's core extension module, which resolves them in the
    libraries it was linked against."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return get_threads
    return None


_blas_get_threads = _one_blas_thread()


def blas_threads() -> int | None:
    """Threads NumPy's OpenBLAS runs a call on — 1 once this module is
    imported — or ``None`` when its BLAS is not an OpenBLAS that could
    be set."""
    return None if _blas_get_threads is None else int(_blas_get_threads())


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _helpers(size: int) -> ThreadPoolExecutor:
    """The process's pool, (re)made with ``size`` threads when the
    usable CPU count has changed since it was made."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size != size:
            old, _pool = _pool, ThreadPoolExecutor(size, thread_name_prefix=POOL_THREAD_PREFIX)
            _pool_size = size
            if old is not None:
                # Its threads finish what they hold, then exit.
                old.shutdown(wait=False, cancel_futures=True)
        return _pool


def _forget_pool() -> None:
    """After ``fork``: the parent's threads do not exist in the child."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _Batch:
    """One call's items, claimed in order by whichever thread asks next."""

    def __init__(self, fn: Callable[[Any], Any], items: list) -> None:
        self._fn, self._items = fn, items
        self._context = contextvars.copy_context()
        self._n = len(items)
        self.results: list = [None] * self._n
        self.error: BaseException | None = None
        self._next = 0  # the next unclaimed item; _n once closed
        self._running = 0  # claimed items not yet finished
        self._cond = threading.Condition(threading.Lock())

    def _claim(self) -> int | None:
        with self._cond:
            if self._next >= self._n:
                return None
            self._next += 1
            self._running += 1
            return self._next - 1

    def work(self) -> None:
        """Run items until none is left to claim.  An item's exception
        stops all further claims and propagates (into the helper's
        future, or the caller's ``finally``); the caller re-raises the
        first one recorded."""
        while (i := self._claim()) is not None:
            try:
                self.results[i] = self._context.copy().run(self._fn, self._items[i])
            except BaseException as exc:  # recorded for the caller, then propagated
                with self._cond:
                    if self.error is None:
                        self.error = exc
                    self._next = self._n
                raise
            finally:
                with self._cond:
                    self._running -= 1
                    if not self._running:
                        self._cond.notify_all()

    def close(self) -> tuple[list, BaseException | None]:
        """Stop claims, wait until every claimed item has finished, and
        hand over ``(results, first error)``, dropping every reference a
        stale helper task would otherwise keep alive."""
        with self._cond:
            self._next = self._n
            while self._running:
                self._cond.wait()
        out = (self.results, self.error)
        self._fn = self._items = self._context = self.results = self.error = None
        return out


def thread_map(fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
    """Apply ``fn`` to every item, preserving order, with at most
    :func:`usable_cpus` threads running ``fn`` at once: the calling
    thread and up to ``usable_cpus() - 1`` threads of the process's
    pool.  A lone item, or a single usable CPU, runs wholly in the
    calling thread; so do a nested call's items when every pool thread
    is busy.  Each item runs in a copy of the caller's
    :mod:`contextvars` context, so telemetry spans opened in it nest
    under the caller's open span wherever it runs.  The first exception
    any item raises is re-raised here, once every claimed item has
    finished, so nothing an item writes lands after this returns."""
    batch = _Batch(fn, list(items))
    cpus = usable_cpus()
    helpers = []
    if min(batch._n, cpus) > 1:
        pool = _helpers(cpus - 1)
        helpers = [pool.submit(batch.work) for _ in range(min(batch._n, cpus) - 1)]
    try:
        batch.work()
    finally:
        results, error = batch.close()
        for helper in helpers:
            helper.cancel()  # a helper still queued is a no-op
        if error is not None:
            raise error
    return results
