"""Snapshot persistence.

Nyx writes HDF5/AMReX plotfiles; the offline environment has no h5py, so
snapshots round-trip through a compressed ``.npz`` container with the
same logical layout (one array per field plus scalar metadata).  A
damaged file (empty, truncated, not a zip, an unreadable member) is a
:class:`~repro.util.errors.PayloadError` naming it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sim.nyx import NyxSnapshot
from repro.util.npz import member_header, open_npz, read_member

__all__ = ["save_snapshot", "load_snapshot", "peek_snapshot_shape"]

_META_PREFIX = "__meta_"


def save_snapshot(snapshot: NyxSnapshot, path: str | os.PathLike) -> None:
    """Write ``snapshot`` to ``path`` (``.npz`` appended if missing)."""
    payload: dict[str, np.ndarray] = dict(snapshot.fields)
    payload["__redshift"] = np.array(snapshot.redshift)
    payload["__box_size"] = np.array(snapshot.box_size)
    for key, value in snapshot.meta.items():
        payload[_META_PREFIX + key] = np.array(value)
    np.savez_compressed(path, **payload)


def peek_snapshot_shape(path: str | os.PathLike) -> tuple[int, ...]:
    """Grid shape of a snapshot container, from the ``.npy`` headers only.

    Streaming consumers need the shape before the first dump is
    processed (to build the rank decomposition); this reads a few hundred
    bytes of zip + array-header metadata instead of decompressing a
    whole field.
    """
    with open_npz(path) as data:
        for name in sorted(data.files):
            if not name.startswith("__"):  # skip the scalar metadata entries
                return member_header(data, path, name)[0]
    raise ValueError(f"{path!r} is not a snapshot container (no field arrays)")


def load_snapshot(path: str | os.PathLike) -> NyxSnapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    with open_npz(path) as data:
        fields = {}
        meta = {}
        redshift = None
        box_size = None
        for key in data.files:
            value = read_member(data, path, key)
            if key == "__redshift":
                redshift = float(value)
            elif key == "__box_size":
                box_size = float(value)
            elif key.startswith(_META_PREFIX):
                meta[key[len(_META_PREFIX) :]] = float(value)
            else:
                fields[key] = value
    if redshift is None or box_size is None:
        raise ValueError(f"{path!r} is not a snapshot container (missing metadata)")
    return NyxSnapshot(fields=fields, redshift=redshift, box_size=box_size, meta=meta)
