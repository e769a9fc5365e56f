"""Snapshot sources: where an in situ stream's dumps come from.

The controller consumes a :class:`SnapshotStream`: an ordered list of
items, each turned into a :class:`~repro.sim.nyx.NyxSnapshot` by the
stream's ``load`` when iteration reaches it.  ``len``, iteration,
:meth:`~SnapshotStream.iter_from` (how a resumed run skips the dumps it
has accounted without loading them) and ``shape`` are written once
there.  Every load passes through the ``source.load`` fault point and,
when the stream has a ``retry`` policy, is retried under it.  The
sources differ only in their items and their ``load``:

- :class:`SimulatorStream` drives a :class:`~repro.sim.nyx.NyxSimulator`
  through a redshift schedule (the "simulation is running next door"
  deployment),
- :class:`DirectoryStream` replays an on-disk ``.npz`` sequence written
  by :func:`repro.sim.io.save_snapshot` (e.g. by
  ``python -m repro.cli generate --redshifts ...``).  A dump still being
  copied is an empty or truncated archive, or one without a zip
  signature yet: :func:`~repro.sim.io.load_snapshot` raises an
  :class:`~repro.util.errors.IncompleteArchiveError` for it, which a
  retry policy treats as transient.  Damage inside a member, or an
  archive that is not a snapshot, fails at once,
- :class:`SnapshotSequence` wraps an in-memory list (tests, notebooks,
  synthetic distribution-shift experiments).

Every source accepts a ``fields`` subset so a stream can be restricted
to the fields under study without touching the snapshots on disk.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.sim.io import load_snapshot, peek_snapshot_shape
from repro.sim.nyx import NyxSimulator, NyxSnapshot

__all__ = [
    "SnapshotStream",
    "SimulatorStream",
    "DirectoryStream",
    "SnapshotSequence",
    "as_stream",
]


def _restrict(snapshot: NyxSnapshot, fields: tuple[str, ...] | None) -> NyxSnapshot:
    if fields is None:
        return snapshot
    missing = [f for f in fields if f not in snapshot.fields]
    if missing:
        raise KeyError(
            f"snapshot at z={snapshot.redshift} lacks fields {missing}; "
            f"available: {sorted(snapshot.fields)}"
        )
    return NyxSnapshot(
        fields={f: snapshot.fields[f] for f in fields},
        redshift=snapshot.redshift,
        box_size=snapshot.box_size,
        meta=dict(snapshot.meta),
    )


class SnapshotStream:
    """A finite, ordered sequence of snapshots (one pass, in dump order).

    Parameters
    ----------
    items:
        What each dump is made from, in stream order.
    load:
        ``load(item)`` -> the dump's snapshot.
    fields:
        Optional subset of field names to expose.
    retry:
        A :class:`~repro.resilience.retry.RetryPolicy` each load runs
        under (site ``source.load``); ``None`` fails fast.
    peek:
        ``peek(item)`` -> the grid shape, without loading the dump
        (default: load it).
    """

    def __init__(
        self,
        items: Sequence[Any],
        load: Callable[[Any], NyxSnapshot],
        fields: Sequence[str] | None = None,
        retry: RetryPolicy | None = None,
        peek: Callable[[Any], tuple[int, ...]] | None = None,
    ) -> None:
        self.items = list(items)
        self.load = load
        self.fields = None if fields is None else tuple(fields)
        if self.fields == ():
            raise ValueError("fields subset must not be empty")
        self.retry = retry
        self._peek = peek or (lambda item: load(item).shape)

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        """Grid shape of the stream, read off its first item."""
        return tuple(self._peek(self.items[0]))

    def __len__(self) -> int:
        return len(self.items)

    def _load(self, item: Any) -> NyxSnapshot:
        def attempt() -> NyxSnapshot:
            fault_point("source.load")
            return self.load(item)

        if self.retry is None:
            return attempt()
        return self.retry.execute(attempt, site="source.load")

    def __iter__(self) -> Iterator[NyxSnapshot]:
        yield from self.iter_from(0)

    def iter_from(self, start: int) -> Iterator[NyxSnapshot]:
        """Iterate from dump index ``start`` without loading the skipped
        items — how a resumed run fast-forwards a long stream."""
        for item in self.items[start:]:
            yield _restrict(self._load(item), self.fields)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)})"


class SimulatorStream(SnapshotStream):
    """Snapshots generated on demand from a redshift schedule.

    Each dump is a pure function of the simulator's seed and its
    redshift, so a resumed stream sees identical data.

    Parameters
    ----------
    simulator:
        The snapshot generator (fixed phases across the schedule).
    redshifts:
        Dump schedule in stream order (typically decreasing, as a
        simulation runs forward in time).
    fields:
        Optional subset of field names to expose.
    """

    def __init__(
        self,
        simulator: NyxSimulator,
        redshifts: Sequence[float],
        fields: Sequence[str] | None = None,
    ) -> None:
        self.simulator = simulator
        self.redshifts = [float(z) for z in redshifts]
        if not self.redshifts:
            raise ValueError("redshift schedule must not be empty")
        if any(z < 0 for z in self.redshifts):
            raise ValueError("redshifts must be non-negative")
        super().__init__(
            self.redshifts,
            lambda z: simulator.snapshot(z=z),
            fields,
            peek=lambda _: simulator.shape,
        )


class DirectoryStream(SnapshotStream):
    """An on-disk snapshot sequence, replayed in sorted filename order.

    Files are discovered eagerly (so ``len`` is cheap and the order is
    fixed at construction) but *loaded* lazily, one snapshot per
    iteration step — a 200-dump campaign never holds two snapshots in
    memory at once.  ``shape`` reads the first file's array headers (a
    few hundred bytes — no field is decompressed).

    Under a ``retry`` policy, a snapshot file observed mid-copy (an
    ``OSError``, or an archive cut short) resolves on a later attempt
    instead of killing the stream.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        pattern: str = "*.npz",
        fields: Sequence[str] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"snapshot directory {self.directory} not found")
        self.paths = sorted(self.directory.glob(pattern))
        if not self.paths:
            raise FileNotFoundError(
                f"no snapshots matching {pattern!r} in {self.directory}"
            )
        super().__init__(self.paths, load_snapshot, fields, retry, peek_snapshot_shape)


class SnapshotSequence(SnapshotStream):
    """An in-memory snapshot list as a stream (tests and experiments)."""

    def __init__(
        self,
        snapshots: Sequence[NyxSnapshot],
        fields: Sequence[str] | None = None,
    ) -> None:
        self.snapshots = list(snapshots)
        if not self.snapshots:
            raise ValueError("snapshot sequence must not be empty")
        super().__init__(self.snapshots, lambda snap: snap, fields)


def as_stream(source: "SnapshotStream | Sequence[NyxSnapshot] | NyxSnapshot") -> SnapshotStream:
    """Coerce a snapshot, or a list of them, into a stream; pass streams through."""
    if isinstance(source, SnapshotStream):
        return source
    if isinstance(source, NyxSnapshot):
        return SnapshotSequence([source])
    if isinstance(source, Sequence):
        return SnapshotSequence(source)
    raise TypeError(f"cannot interpret {type(source).__name__} as a snapshot stream")
