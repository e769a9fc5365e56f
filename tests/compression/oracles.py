"""Textbook forms of the SZ integer front: what its batched kernels are
checked against.

Each map is spelled the plainest way and shares no code with
``repro.compression``: quantization is ``np.rint`` plus a cast, the
Lorenzo residuals a chain of zero-prepended ``np.diff`` (one per block
axis), their inverse ``np.cumsum`` per axis, and the fold of code-stream
layout 2 (``0`` = outlier, ``r -> zigzag(r) + 1`` when ``|r| <
radius``) one Python integer at a time.
"""

from __future__ import annotations

import numpy as np


def quantize(data: np.ndarray, eb: float) -> np.ndarray:
    """The int64 lattice of pitch ``2*eb``: ``rint(x / 2eb)``."""
    return np.rint(np.asarray(data, dtype=np.float64) / (2.0 * eb)).astype(np.int64)


def lorenzo(arr: np.ndarray, first_axis: int = 0) -> np.ndarray:
    """Lorenzo residuals (zero boundary): one zero-prepended ``np.diff``
    per axis from ``first_axis`` on (1 for a ``(B, ...)`` stack)."""
    out = np.array(arr)
    for axis in range(first_axis, out.ndim):
        pre = np.zeros([1 if ax == axis else s for ax, s in enumerate(out.shape)], out.dtype)
        out = np.diff(out, axis=axis, prepend=pre)
    return out


def undo_lorenzo(residuals: np.ndarray, first_axis: int = 0) -> np.ndarray:
    """Inverse of :func:`lorenzo`: ``np.cumsum`` along each axis from
    ``first_axis`` on (integer sums wrap, as the differences did)."""
    out = np.array(residuals)
    for axis in range(first_axis, out.ndim):
        out = np.cumsum(out, axis=axis, dtype=out.dtype)
    return out


def fold(residuals, radius: int) -> tuple[list[int], list[int], list[int]]:
    """``(symbols, outlier positions, outlier values)`` of a flat run of
    residuals, value by value."""
    symbols, positions, values = [], [], []
    for i, r in enumerate(np.asarray(residuals).ravel().tolist()):
        if abs(r) < radius:
            symbols.append((2 * r if r >= 0 else -2 * r - 1) + 1)
        else:
            symbols.append(0)
            positions.append(i)
            values.append(r)
    return symbols, positions, values


def unfold(symbol: int) -> int:
    """The residual of one folded symbol; an outlier slot (0) gives 0."""
    if symbol == 0:
        return 0
    zz = symbol - 1
    return zz >> 1 if zz % 2 == 0 else -(zz >> 1) - 1
