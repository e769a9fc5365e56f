"""Reusable scratch buffers for the fused compression kernels.

The hot path of :class:`repro.compression.sz.SZCompressor` needs a
handful of full-array temporaries per call (a float64 quantization
buffer, an int64 lattice/residual buffer, boolean masks, a narrowed
code buffer).  Allocating them per ``compress`` call costs page faults
and memory bandwidth that dominate once the numpy kernels themselves
are cheap — the paper budgets the whole adaptive machinery at 1-5% of
compression time (§4.3), so the compressor itself has to be lean.

A :class:`Workspace` is an arena of named, preallocated buffers.  Each
slot is grown geometrically to the largest size ever requested and
served back as a reshaped view, so a batch of partitions (for example
one :meth:`~repro.compression.sz.SZCompressor.compress_many` call)
allocates its temporaries once and reuses them for every block.

Ownership
---------
A ``Workspace`` is **not** thread-safe: two concurrent kernels handed
the same instance would scribble over each other's views.  So scratch
has exactly one owner, the *thread*: :func:`thread_workspace` hands the
calling thread its arena, and every compressor instance that runs in
that thread — whatever its configuration, however many the controller
builds — works in it (slots are keyed by name and dtype, not by
compressor).  That is cuSZ's one-scratch-per-worker layout: the calling
thread and each thread of the process's fan-out pool
(:func:`repro.util.fanout.thread_map`) hold one arena for their
lifetime, warm from call to call, and nothing is passed around — there
is no ``workspace=`` argument.  A batched pass works on one chunk of at
most :data:`~repro.compression.sz.GROUP_LATTICE_BYTES` of lattice, and
every chunk ends with :meth:`Workspace.trim` to
:data:`~repro.compression.sz.ARENA_BYTES`, so an arena stays about one
chunk's scratch however long the group, and however large a lone block
once was.  A view is valid until the same thread next requests its
slot, i.e. for the duration of one batched kernel pass; nothing that
outlives a ``compress_many`` / ``estimate_many`` / ``decompress_many``
call may refer to one.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Workspace", "thread_workspace"]


class Workspace:
    """Arena of named scratch buffers served as shaped views.

    Buffers are keyed by ``(name, dtype)``; a request larger than the
    slot's current capacity reallocates it (with geometric headroom so
    ragged batch shapes don't cause repeated growth), otherwise the
    existing allocation is sliced and reshaped — no copy, no new pages.
    """

    #: Headroom factor applied when a slot must be enlarged, so ragged
    #: ascending batch shapes don't reallocate on every new maximum.
    GROWTH = 1.25

    def __init__(self) -> None:
        self._slots: dict[tuple[str, str], np.ndarray] = {}
        self._used: set[tuple[str, str]] = set()  # slots requested since the last trim

    def request(self, name: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
        """A C-contiguous scratch view of ``shape``/``dtype`` for slot ``name``.

        The contents are uninitialized (whatever the previous kernel left
        behind); callers must fully overwrite the view.  Requesting the
        same name again invalidates previously returned views for it.
        """
        dt = np.dtype(dtype)
        n = math.prod(shape)
        key = (name, dt.str)
        base = self._slots.get(key)
        if base is None or base.size < n:
            base = np.empty(max(int(n * self.GROWTH), 1), dtype=dt)
            self._slots[key] = base
        self._used.add(key)
        return base[:n].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held across all slots (diagnostics)."""
        return sum(b.nbytes for b in self._slots.values())

    def clear(self) -> None:
        """Drop every buffer (e.g. after a one-off huge block)."""
        self._slots.clear()
        self._used.clear()

    def trim(self, max_bytes: int) -> None:
        """Hold at most ``max_bytes``: past it, drop the slots no request
        has touched since the last trim, then, if one pass alone needed
        more (a lone oversize block), everything.  Call between passes,
        when no view is live."""
        if self.nbytes() > max_bytes:
            self._slots = {k: v for k, v in self._slots.items() if k in self._used}
            if self.nbytes() > max_bytes:
                self._slots.clear()
        self._used.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workspace(slots={len(self._slots)}, nbytes={self.nbytes()})"


_tls = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's scratch arena, created on first use and
    released with the thread (pool threads live as long as the
    process)."""
    ws = getattr(_tls, "workspace", None)
    if ws is None:
        ws = _tls.workspace = Workspace()
    return ws
