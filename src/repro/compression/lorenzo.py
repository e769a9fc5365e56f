"""The Lorenzo predictor as an invertible integer transform.

SZ predicts each point from its causal neighbours with the Lorenzo
predictor [Ibarria et al. 2003].  For an n-D array the prediction
residual equals the n-fold mixed first difference::

    1-D: r[i]     = d[i] - d[i-1]
    2-D: r[i,j]   = d[i,j] - d[i-1,j] - d[i,j-1] + d[i-1,j-1]
    3-D: r[i,j,k] = d - (neighbours with inclusion-exclusion signs)

i.e. applying ``diff`` (with a zero boundary) once along every axis.
That formulation is exactly invertible on integers (``cumsum`` along the
axes in reverse order) and fully vectorizable — which is why cuSZ
quantizes *first* and runs Lorenzo on the integer lattice ("dual
quantization").  This module implements the transform pair as batched
kernels over ``(B, ...)`` stacks of same-shape blocks, the only form
there is (a lone block is a stack of one): :mod:`repro.compression.sz`
runs them on its chunks, :mod:`repro.compression.regression` on its
tile stack and :mod:`repro.compression.compat` on a layout-1 block.
CPU-SZ's sequential predict-then-quantize loop is in
:mod:`repro.compression.reference`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lorenzo_transform_batch",
    "lorenzo_inverse_batch_inplace",
]


def _mixed_difference(
    arr: np.ndarray, axes: "tuple[int, ...] | range", scratch: np.ndarray
) -> np.ndarray:
    """First difference (zero boundary) along each of ``axes``; returns
    whichever of ``arr`` (C-contiguous) and ``scratch`` holds the result.

    The core of :func:`lorenzo_transform_batch`.  Each
    axis is one ping-pong pass between ``arr`` and ``scratch`` (``arr``'s
    dtype, at least ``arr.size`` elements): on the C-order flat buffers,
    the difference along an axis of stride ``s`` is one contiguous
    ``flat[s:] - flat[:-s]``, right everywhere but where that axis's
    index is 0, which then takes its source value back in one strided
    copy.  That beats a subtract over the ``[1:]``/``[:-1]`` slices,
    whose last axis runs as one short row per call (one 64^3 int64
    block: 0.82 ms against 1.21 ms).  After an even number of passes
    the result is ``arr`` itself; after an odd one it is the first
    ``arr.size`` elements of ``scratch`` in ``arr``'s shape, and
    nothing is copied back.  Length-1 axes are skipped (their
    zero-boundary diff is the identity), which is also what makes
    trailing singleton padding a no-op for the batched 3-D
    normalization.
    """
    src = arr
    dst = scratch.reshape(-1)[: arr.size].reshape(arr.shape)
    for axis in axes:
        if arr.shape[axis] < 2:
            continue
        stride = math.prod(arr.shape[axis + 1 :])
        flat_src, flat_dst = src.reshape(-1), dst.reshape(-1)
        np.subtract(flat_src[stride:], flat_src[:-stride], out=flat_dst[stride:])
        first = tuple(0 if ax == axis else slice(None) for ax in range(arr.ndim))
        dst[first] = src[first]
        src, dst = dst, src
    return src


def lorenzo_transform_batch(
    batch: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lorenzo-transform every block of a ``(B, ...)`` stack, using
    ``batch`` and ``scratch`` as the two buffers of a ping-pong; returns
    ``(residuals, spare)``.

    ``batch`` stacks same-shape blocks along a leading batch axis; the
    transform runs over the trailing (block) axes only, so row ``b`` of
    ``residuals`` is the mixed first difference of ``batch[b]`` alone,
    element for element.  ``scratch`` is a buffer of
    ``batch``'s dtype with at least ``batch.size`` elements.  The
    passes alternate between the two (:func:`_mixed_difference`), so
    ``residuals`` is ``batch`` itself after an even number of
    non-trivial axes (a 2-D block, or none) and ``scratch``'s prefix in
    ``batch``'s shape after an odd one (1-D and 3-D blocks); nothing is
    copied back.  ``spare`` is the other buffer, flat: its contents are
    undefined and the caller may use it as scratch for the next step.
    A non-contiguous ``batch`` is transformed through a contiguous copy
    and written back, and is then ``residuals``.  This is the one-pass
    multi-block kernel behind the batched compress path: each per-axis
    difference is a single ufunc over the whole stack instead of one
    Python-level call per block.
    """
    if batch.ndim < 2 or batch.ndim > 4:
        raise ValueError(
            f"batched lorenzo expects (B, 1-3 block dims), got {batch.ndim}-D"
        )
    if scratch.dtype != batch.dtype or scratch.size < batch.size:
        raise ValueError(
            f"scratch must provide >= {batch.size} elements of dtype {batch.dtype}"
        )
    axes = range(1, batch.ndim)
    if not batch.flags.c_contiguous:
        batch[...] = _mixed_difference(np.ascontiguousarray(batch), axes, scratch)
        return batch, scratch.reshape(-1)
    res = _mixed_difference(batch, axes, scratch)
    if res is batch:
        return res, scratch.reshape(-1)
    return res, batch.reshape(-1)


#: Smallest first-axis slab (elements) summed with one vectorized add
#: per index instead of ``cumsum``'s walk with a whole block's stride
#: (one 32^3 int64 block: 41 us vs 174 us).
_SLAB_MIN_ELEMENTS = 256

#: An inner axis is summed by slab adds only once its slab holds this
#: many elements per index of the axis; below that an in-place
#: ``cumsum`` over short, near-contiguous rows is cheaper (one 32^3
#: block: 0.33 ms vs 0.47 ms with slab adds on every axis; 64 x 16^3:
#: 2.26 vs 2.29 ms; ``docs/kernels.md``).
_SLAB_ROWS_PER_ADD = 128


def lorenzo_inverse_batch_inplace(batch: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_transform_batch`: prefix sums along
    every block axis of a ``(B, ...)`` stack, in place (and returned).

    Integer sums wrap, and wrapping addition is associative and
    commutative, so how each axis is summed is free: row ``b`` of the
    result is element-for-element the inverse of row ``b`` alone.  An
    axis is summed by slab adds (one vectorized add per index over the
    whole stack) once its slab is big enough — :data:`_SLAB_MIN_ELEMENTS`
    for the first block axis, :data:`_SLAB_ROWS_PER_ADD` per index for
    the inner ones — else by an in-place ``cumsum``.
    """
    if batch.ndim < 2 or batch.ndim > 4:
        raise ValueError(
            f"batched lorenzo expects (B, 1-3 block dims), got {batch.ndim}-D"
        )
    for axis in range(1, batch.ndim):
        extent = batch.shape[axis]
        if extent < 2:
            continue
        slab = batch.size // extent
        if slab < (_SLAB_MIN_ELEMENTS if axis == 1 else _SLAB_ROWS_PER_ADD * extent):
            np.cumsum(batch, axis=axis, dtype=batch.dtype, out=batch)
            continue
        lead = (slice(None),) * axis
        for i in range(1, extent):
            batch[lead + (i,)] += batch[lead + (i - 1,)]
    return batch
