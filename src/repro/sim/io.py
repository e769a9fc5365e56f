"""Snapshot persistence.

Nyx writes HDF5/AMReX plotfiles; the offline environment has no h5py, so
snapshots round-trip through a compressed ``.npz`` container with the
same logical layout (one array per field plus scalar metadata).  They
are read by :mod:`repro.util.npz`, the reader block containers use: it
checks the archive, each member's CRC and each ``.npy`` header (the
fields and scalars go through numpy's parser, ``allow_pickle=False``),
so a damaged file (empty, truncated, not a zip, an unreadable member)
is a :class:`~repro.util.errors.PayloadError` naming it and the member.
This module checks what the members mean: the metadata scalars a
snapshot needs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sim.nyx import NyxSnapshot
from repro.util.npz import archive_path, open_npz

__all__ = ["save_snapshot", "load_snapshot", "peek_snapshot_shape"]

_META_PREFIX = "__meta_"


def save_snapshot(snapshot: NyxSnapshot, path: str | os.PathLike) -> str:
    """Write ``snapshot`` to ``path`` (``.npz`` appended if missing);
    returns the path written."""
    payload: dict[str, np.ndarray] = dict(snapshot.fields)
    payload["__redshift"] = np.array(snapshot.redshift)
    payload["__box_size"] = np.array(snapshot.box_size)
    for key, value in snapshot.meta.items():
        payload[_META_PREFIX + key] = np.array(value)
    path = archive_path(path)
    np.savez_compressed(path, **payload)
    return path


def peek_snapshot_shape(path: str | os.PathLike) -> tuple[int, ...]:
    """Grid shape of a snapshot container, from the ``.npy`` headers only.

    Streaming consumers need the shape before the first dump is
    processed (to build the rank decomposition); this reads a few hundred
    bytes of zip + array-header metadata instead of decompressing a
    whole field.
    """
    with open_npz(path) as archive:
        for name in sorted(archive.names):
            if not name.startswith("__"):  # skip the scalar metadata entries
                return archive.header(name)[0]
    raise ValueError(f"{path!r} is not a snapshot container (no field arrays)")


def load_snapshot(path: str | os.PathLike) -> NyxSnapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    with open_npz(path) as archive:
        fields = {}
        meta = {}
        redshift = None
        box_size = None
        for key in archive.names:
            value = archive.array(key)
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
