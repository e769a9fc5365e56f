"""Damaged copies of an ``.npz`` file: what a crashed copy or a stray
file leaves where a container or a snapshot should be."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


#: kind -> the damaged file's bytes, from the good file's.
DAMAGES = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "empty": lambda raw: b"",
    "not-a-zip": lambda raw: b"plain text, not an archive\n" * 64,
    "an-npy-array": lambda raw: _npy_bytes(np.zeros(3)),
}


def damaged_copy(good, dst, kind: str) -> str:
    """Write the file ``good`` damaged as ``kind`` says to ``dst``."""
    Path(dst).write_bytes(DAMAGES[kind](Path(good).read_bytes()))
    return str(dst)
