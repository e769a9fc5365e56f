"""``.npz`` archives opened without pickle, damage as a typed error.

Block containers and snapshots both open here: an empty, truncated or
non-zip file is an :class:`~repro.util.errors.IncompleteArchiveError`,
a missing or unreadable member a :class:`~repro.util.errors.PayloadError`,
each naming the file (and member).
"""

from __future__ import annotations

import os
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
from numpy.lib import format as _npy_format

from repro.util.errors import IncompleteArchiveError, PayloadError

__all__ = ["open_npz", "read_member", "member_header"]

_HEADER_READERS = {(1, 0): _npy_format.read_array_header_1_0, (2, 0): _npy_format.read_array_header_2_0}
_MEMBER_ERRORS = (ValueError, EOFError, OSError, zipfile.BadZipFile)


@contextmanager
def open_npz(path: str | os.PathLike) -> Iterator[np.lib.npyio.NpzFile]:
    """The archive at ``path``, read with ``allow_pickle=False`` (a
    missing file stays a :class:`FileNotFoundError`)."""
    try:
        data = np.load(path, allow_pickle=False)
    except EOFError:
        raise IncompleteArchiveError(f"{path}: empty file, not an .npz archive") from None
    except zipfile.BadZipFile as exc:
        raise IncompleteArchiveError(f"{path}: damaged .npz archive: {exc}") from None
    except ValueError:  # neither zip nor .npy magic: numpy takes it for a pickle
        raise IncompleteArchiveError(
            f"{path}: not an .npz archive (no zip signature)"
        ) from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise PayloadError(f"{path}: an .npy array, not an .npz archive")
    with data:
        yield data


def read_member(data: np.lib.npyio.NpzFile, path, name: str) -> np.ndarray:
    """Member ``name`` of the open archive (not a bad ``.npy`` header,
    truncated data, a failed CRC or an object array)."""
    try:
        arr = data[name]
    except KeyError:
        raise PayloadError(f"{path}: archive has no {name!r} member") from None
    except _MEMBER_ERRORS as exc:
        raise PayloadError(f"{path}: member {name!r} is unreadable: {exc}") from None
    # ``NpzFile`` hands back a member without the ``.npy`` magic as raw bytes.
    if not isinstance(arr, np.ndarray):
        raise PayloadError(f"{path}: member {name!r} is not an .npy array")
    return arr


def member_header(data: np.lib.npyio.NpzFile, path, name: str) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype of member ``name``, from its ``.npy`` header
    alone (a few hundred bytes; the data is not read)."""
    try:
        with data.zip.open(name + ".npy") as fh:
            version = _npy_format.read_magic(fh)
            if version not in _HEADER_READERS:
                raise ValueError(f".npy format version {version} is not read here")
            shape, _, dtype = _HEADER_READERS[version](fh)
    except KeyError:
        raise PayloadError(f"{path}: archive has no {name!r} member") from None
    except _MEMBER_ERRORS as exc:
        raise PayloadError(f"{path}: member {name!r} has no .npy header: {exc}") from None
    return tuple(int(s) for s in shape), dtype
