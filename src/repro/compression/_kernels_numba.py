"""Optional Numba backend for the batched compression kernels.

Imported lazily by :mod:`repro.compression.kernels` only when numba is
installed; nothing in the package imports this module directly, so the
dependency stays optional.  Each jitted kernel is ``parallel=True`` with
an outer ``prange`` over the block axis — the cuSZ mapping of one block
per thread-block, here one block per CPU thread.

Byte-identity with :class:`~repro.compression.kernels.NumpyKernels` is a
hard contract, which restricts these kernels to operations that are
bit-identical across compilers: ``np.rint`` (round-half-even), exact
float->int64 casts of integral values, and wrapping int64 arithmetic.
No ``fastmath``, ever — it licenses value-changing reassociation.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from repro.compression.kernels import NumpyKernels

__all__ = ["NumbaKernels"]

#: Lattice magnitude limit, matching the NumPy path's ``>= 2**62`` guard.
_LATTICE_LIMIT = float(2**62)


@njit(cache=True, parallel=True)
def _quantize(work, lattice):  # pragma: no cover - exercised via numba CI leg
    n_bad = 0
    for b in prange(work.shape[0]):
        bad = 0
        for i in range(work.shape[1]):
            v = np.rint(work[b, i])
            work[b, i] = v
            if not np.isfinite(v) or v >= _LATTICE_LIMIT or v <= -_LATTICE_LIMIT:
                bad += 1
            else:
                lattice[b, i] = np.int64(v)
        n_bad += bad
    return n_bad


@njit(cache=True, parallel=True)
def _lorenzo3(batch):  # pragma: no cover - exercised via numba CI leg
    n_blocks, nx, ny, nz = batch.shape
    for b in prange(n_blocks):
        blk = batch[b]
        # Descending index order per axis uses only not-yet-updated
        # neighbours — exactly the zero-boundary first difference the
        # NumPy path computes through its scratch buffer.
        for i in range(nx - 1, 0, -1):
            for j in range(ny):
                for k in range(nz):
                    blk[i, j, k] -= blk[i - 1, j, k]
        for i in range(nx):
            for j in range(ny - 1, 0, -1):
                for k in range(nz):
                    blk[i, j, k] -= blk[i, j - 1, k]
        for i in range(nx):
            for j in range(ny):
                for k in range(nz - 1, 0, -1):
                    blk[i, j, k] -= blk[i, j, k - 1]


@njit(cache=True, parallel=True)
def _fold_census(res, limit, counts, maxes):  # pragma: no cover - numba CI leg
    n_blocks, n = res.shape
    for b in prange(n_blocks):
        c = 0
        m = 0
        for i in range(n):
            r = res[b, i]
            zz = (r << 1) ^ (r >> 63)  # wraps like the NumPy in-place shifts
            # uint64(zz) > limit, spelled for a signed register
            if zz < 0 or zz > limit:
                c += 1
            elif zz + 1 > m:
                m = zz + 1
        counts[b] = c
        maxes[b] = m


@njit(cache=True, parallel=True)
def _fold(res, limit, offsets, pos, val):  # pragma: no cover - numba CI leg
    n_blocks, n = res.shape
    for b in prange(n_blocks):
        w = offsets[b]
        for i in range(n):
            r = res[b, i]
            zz = (r << 1) ^ (r >> 63)
            if zz < 0 or zz > limit:
                pos[w] = i
                val[w] = r
                res[b, i] = 0
                w += 1
            else:
                res[b, i] = zz + 1


class NumbaKernels(NumpyKernels):
    """``@njit(parallel=True)`` batch kernels; side-channel ops (narrow,
    zigzag, byte planes) inherit the already-C-speed NumPy versions."""

    name = "numba"

    def quantize(self, work, lattice, mask=None):
        return _quantize(work, lattice) == 0

    def lorenzo(self, lattice, scratch=None):
        if lattice.ndim != 4:
            raise ValueError(
                f"numba lorenzo kernel expects a (B, nx, ny, nz) stack, "
                f"got {lattice.ndim}-D"
            )
        _lorenzo3(lattice)

    def fold(self, res, radius, scratch=None, misfit=None):
        if radius < 2:
            raise ValueError(f"radius must be >= 2, got {radius}")
        limit = 2 * radius - 2  # largest zigzag a fitting residual folds to
        counts = np.empty(res.shape[0], dtype=np.int64)
        maxes = np.empty(res.shape[0], dtype=np.int64)
        _fold_census(res, limit, counts, maxes)
        offsets = np.cumsum(counts)
        total = int(offsets[-1]) if offsets.size else 0
        offsets -= counts  # exclusive prefix sum: write cursor per block
        pos = np.empty(total, dtype=np.int64)
        val = np.empty(total, dtype=np.int64)
        _fold(res, limit, offsets, pos, val)
        return counts, pos, val, maxes
