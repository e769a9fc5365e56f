"""Snapshot persistence.

Nyx writes HDF5/AMReX plotfiles; the offline environment has no h5py, so
snapshots round-trip through a compressed ``.npz`` container with the
same logical layout (one array per field plus scalar metadata).
"""

from __future__ import annotations

import os
import zipfile

import numpy as np
from numpy.lib import format as _npy_format

from repro.sim.nyx import NyxSnapshot

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
    with zipfile.ZipFile(path) as zf:
        for name in sorted(zf.namelist()):
            stem = name[: -len(".npy")] if name.endswith(".npy") else name
            if stem.startswith("__"):  # scalar metadata entries
                continue
            with zf.open(name) as fh:
                version = _npy_format.read_magic(fh)
                if version == (1, 0):
                    shape, _f, _d = _npy_format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    shape, _f, _d = _npy_format.read_array_header_2_0(fh)
                else:  # pragma: no cover - future .npy format revisions
                    shape, _f, _d = _npy_format._read_array_header(fh, version)
                return tuple(int(s) for s in shape)
    raise ValueError(f"{path!r} is not a snapshot container (no field arrays)")


def load_snapshot(path: str | os.PathLike) -> NyxSnapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    with np.load(path) as data:
        fields = {}
        meta = {}
        redshift = None
        box_size = None
        for key in data.files:
            if key == "__redshift":
                redshift = float(data[key])
            elif key == "__box_size":
                box_size = float(data[key])
            elif key.startswith(_META_PREFIX):
                meta[key[len(_META_PREFIX) :]] = float(data[key])
            else:
                fields[key] = data[key]
    if redshift is None or box_size is None:
        raise ValueError(f"{path!r} is not a snapshot container (missing metadata)")
    return NyxSnapshot(fields=fields, redshift=redshift, box_size=box_size, meta=meta)
