"""The program's ``.npz`` archive layer, on :mod:`zipfile`, without pickle.

Block containers (:mod:`repro.compression.container`) and snapshot
dumps (:mod:`repro.sim.io`) read through this one module, and both
writers name their files as :func:`archive_path` does, so a name given
to a writer reads back (``snap`` is ``snap.npz``).

What is checked where, on a read:

- :func:`open_npz` opens the archive once and reads its central
  directory once.  An empty, truncated or non-zip file is an
  :class:`~repro.util.errors.IncompleteArchiveError` (what a dump still
  being copied looks like), a bare ``.npy`` file a
  :class:`~repro.util.errors.PayloadError`; a missing file stays a
  :class:`FileNotFoundError`.
- :meth:`Archive.array` reads a member with one ``ZipFile.read``, which
  checks the member's CRC-32 (and inflates it, if deflated).  A member
  whose ``.npy`` header is byte for byte what
  :func:`numpy.lib.format.write_array_header_1_0` writes for a 1-D
  ``|u1`` array of its length (:func:`u1_header`) is handed straight to
  :func:`numpy.frombuffer`; every other header goes through numpy's own
  parser with ``allow_pickle=False``, which also checks that the data
  is as long as the header says.  An object-dtype header is refused
  before numpy's reader sees the data, so nothing is unpickled.
- Every failure of a member — no such member, a failed CRC, a header
  that does not parse or runs past the member's end, data shorter than
  its header, an object array — is a ``PayloadError`` naming the file
  and the member.  What the members mean is the caller's to check.
"""

from __future__ import annotations

import functools
import io
import os
import zipfile
import zlib
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
from numpy.lib import format as _npy_format

from repro.util.errors import IncompleteArchiveError, PayloadError

__all__ = ["Archive", "ArchiveWriter", "archive_path", "create_npz", "open_npz", "u1_header"]

_NPY = ".npy"
_MAGIC_1_0 = _npy_format.magic(1, 0)
_HEADER_READERS = {
    (1, 0): _npy_format.read_array_header_1_0,
    (2, 0): _npy_format.read_array_header_2_0,
}
_MEMBER_ERRORS = (ValueError, EOFError, OSError, zipfile.BadZipFile, zlib.error, NotImplementedError)


def archive_path(path: str | os.PathLike) -> str:
    """The file a writer given ``path`` writes: ``path`` itself when it
    ends in ``.npz``, else ``path + ".npz"`` (``np.savez``'s rule)."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


@functools.cache
def _u1_header_around(digits: int) -> tuple[bytes, bytes]:
    """numpy's header for a 1-D ``uint8`` array whose length has
    ``digits`` digits, cut around the length.  The header depends on the
    length only through those digits, and on their count through its
    padding, so any such length fits between the two halves."""
    n = 10 ** (digits - 1)
    fh = io.BytesIO()
    _npy_format.write_array_header_1_0(fh, {"descr": "|u1", "fortran_order": False, "shape": (n,)})
    header = fh.getvalue()
    cut = header.index(b"(%d," % n) + 1
    return header[:cut], header[cut + digits :]


def u1_header(n: int) -> bytes:
    """numpy's own ``.npy`` 1.0 header for a 1-D ``uint8`` array of ``n``
    elements: the bytes ``np.lib.format.write_array`` puts before it."""
    length = b"%d" % n
    before, after = _u1_header_around(len(length))
    return before + length + after


def _refuse(path: str, exc: zipfile.BadZipFile) -> PayloadError:
    """The typed error for a file ``zipfile`` could not open."""
    with open(path, "rb") as fh:
        head = fh.read(6)
    if not head:
        return IncompleteArchiveError(f"{path}: empty file, not an .npz archive")
    if head == _MAGIC_1_0[:6]:
        return PayloadError(f"{path}: an .npy array, not an .npz archive")
    if head.startswith(b"PK"):
        return IncompleteArchiveError(f"{path}: damaged .npz archive: {exc}")
    return IncompleteArchiveError(f"{path}: not an .npz archive (no zip signature)")


class Archive:
    """An open ``.npz`` archive: its member ``names`` (``.npy`` suffix
    dropped, as ``np.load`` lists them) and each member read on demand."""

    def __init__(self, path: str, zf: zipfile.ZipFile) -> None:
        self.path = path
        self._zip = zf
        self._members = {
            (name[: -len(_NPY)] if name.endswith(_NPY) else name): name for name in zf.namelist()
        }
        self.names = list(self._members)

    def _member(self, name: str) -> str:
        try:
            return self._members[name]
        except KeyError:
            raise PayloadError(f"{self.path}: archive has no {name!r} member") from None

    def _error(self, name: str, what: str) -> PayloadError:
        return PayloadError(f"{self.path}: member {name!r} {what}")

    def array(self, name: str) -> np.ndarray:
        """Member ``name`` as an array (read-only when it took the 1-D
        ``uint8`` fast path)."""
        member = self._member(name)
        try:
            raw = self._zip.read(member)
        except _MEMBER_ERRORS as exc:
            raise self._error(name, f"is unreadable: {exc}") from None
        if raw[:8] == _MAGIC_1_0:
            offset = 10 + int.from_bytes(raw[8:10], "little")
            if offset <= len(raw) and raw.startswith(u1_header(len(raw) - offset)):
                return np.frombuffer(raw, dtype=np.uint8, offset=offset)
        with io.BytesIO(raw) as fh:
            if self._header(name, fh)[1].hasobject:
                raise self._error(name, "is an object array, which only pickle reads")
            fh.seek(0)
            try:
                return _npy_format.read_array(fh, allow_pickle=False)
            except _MEMBER_ERRORS as exc:
                raise self._error(name, f"is unreadable: {exc}") from None

    def header(self, name: str) -> tuple[tuple[int, ...], np.dtype]:
        """Shape and dtype of member ``name``, from its ``.npy`` header
        alone (a few hundred bytes; the data is not read)."""
        try:
            with self._zip.open(self._member(name)) as fh:
                return self._header(name, fh)
        except PayloadError:
            raise
        except _MEMBER_ERRORS as exc:
            raise self._error(name, f"is unreadable: {exc}") from None

    def _header(self, name: str, fh) -> tuple[tuple[int, ...], np.dtype]:
        """The ``.npy`` header at ``fh``, parsed by numpy's readers."""
        try:
            version = _npy_format.read_magic(fh)
            if version not in _HEADER_READERS:
                raise ValueError(f".npy format version {version} is not read here")
            shape, _, dtype = _HEADER_READERS[version](fh)
        except _MEMBER_ERRORS as exc:
            raise self._error(name, f"has no .npy header: {exc}") from None
        return tuple(int(s) for s in shape), dtype


@contextmanager
def open_npz(path: str | os.PathLike) -> Iterator[Archive]:
    """The archive at ``path``, else at :func:`archive_path` of it (the
    file a writer given ``path`` wrote), open for the ``with`` block."""
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(archive_path(path)):
        path = archive_path(path)
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise _refuse(path, exc) from None
    with zf:
        yield Archive(path, zf)


class ArchiveWriter:
    """Members written into a new archive, with fixed timestamps: the
    same members in the same order give the same file bytes."""

    def __init__(self, zf: zipfile.ZipFile) -> None:
        self._zip = zf

    def _write(self, name: str, data: bytes, deflate: bool) -> None:
        info = zipfile.ZipInfo(name + _NPY)  # 1980-01-01 00:00: the bytes depend on nothing else
        info.compress_type = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
        self._zip.writestr(info, data)

    def array(self, name: str, arr: np.ndarray) -> None:
        """Member ``name``: ``arr`` as ``np.save`` writes it, deflated."""
        fh = io.BytesIO()
        _npy_format.write_array(fh, arr, allow_pickle=False)
        self._write(name, fh.getvalue(), deflate=True)

    def u1(self, name: str, blob: bytes, deflate: bool) -> None:
        """Member ``name``: ``blob`` as a 1-D ``uint8`` array, the bytes
        :meth:`array` writes for ``np.frombuffer(blob, np.uint8)``."""
        self._write(name, u1_header(len(blob)) + blob, deflate)


@contextmanager
def create_npz(path: str | os.PathLike) -> Iterator[ArchiveWriter]:
    """A new archive at ``path`` (replacing any file there), built in
    memory and written with one ``write`` when the block ends: zipfile
    goes back over each member's local header to fill in its CRC, which
    on a file is a flush and two seeks per member."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", allowZip64=True) as zf:
        yield ArchiveWriter(zf)
    with open(path, "wb") as fh:
        fh.write(buf.getbuffer())
