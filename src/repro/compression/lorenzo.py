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
quantization").  This module implements the transform pair the
compressor runs; CPU-SZ's sequential predict-then-quantize loop is in
:mod:`repro.compression.reference`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lorenzo_transform",
    "lorenzo_transform_batch_inplace",
    "lorenzo_inverse",
    "lorenzo_inverse_batch_inplace",
]


def _mixed_difference_inplace(
    arr: np.ndarray, axes: "tuple[int, ...] | range", scratch: np.ndarray
) -> np.ndarray:
    """First difference (zero boundary) along each of ``axes``, in place.

    The shared core of the single-block and batched transforms.  Each
    axis is one ping-pong pass between ``arr`` and ``scratch`` (``arr``'s
    dtype, at least ``arr.size`` elements): on the C-order flat buffers,
    the difference along an axis of stride ``s`` is one contiguous
    ``flat[s:] - flat[:-s]``, right everywhere but where that axis's
    index is 0, which then takes its source value back in one strided
    copy.  That beats a subtract over the ``[1:]``/``[:-1]`` slices,
    whose last axis runs as one short row per call (one 64^3 int64
    block: 0.82 ms against 1.21 ms).  An odd number of passes ends with
    one copy back into ``arr``.  Length-1 axes are skipped (their
    zero-boundary diff is the identity), which is also what makes
    trailing singleton padding a no-op for the batched 3-D
    normalization.
    """
    if not arr.flags.c_contiguous:
        arr[...] = _mixed_difference_inplace(np.ascontiguousarray(arr), axes, scratch)
        return arr
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
    if src is not arr:
        arr[...] = src
    return arr


def lorenzo_transform(data: np.ndarray) -> np.ndarray:
    """Residuals of the n-D Lorenzo predictor (zero boundary condition).

    Works on any integer or float array; for the compressor it is applied
    to the int64 quantization lattice so the round trip is exact.
    """
    arr = np.asarray(data)
    if arr.ndim < 1 or arr.ndim > 3:
        raise ValueError(f"lorenzo_transform supports 1-3 dimensions, got {arr.ndim}")
    out = np.array(arr)
    scratch = np.empty(out.size, dtype=out.dtype)
    return _mixed_difference_inplace(out, range(out.ndim), scratch)


def lorenzo_transform_batch_inplace(batch: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Lorenzo-transform every block of a ``(B, ...)`` stack in place.

    ``batch`` stacks same-shape blocks along a leading batch axis; the
    transform runs over the trailing (block) axes only, so the result of
    row ``b`` is element-for-element identical to
    ``lorenzo_transform(batch[b])``.  ``scratch`` is a buffer of
    ``batch``'s dtype with at least ``batch.size`` elements.  This is
    the one-pass multi-block kernel behind the batched compress path:
    each per-axis difference is a single strided ufunc over the whole
    stack instead of one Python-level call per block.
    """
    if batch.ndim < 2 or batch.ndim > 4:
        raise ValueError(
            f"batched lorenzo expects (B, 1-3 block dims), got {batch.ndim}-D"
        )
    if scratch.dtype != batch.dtype or scratch.size < batch.size:
        raise ValueError(
            f"scratch must provide >= {batch.size} elements of dtype {batch.dtype}"
        )
    return _mixed_difference_inplace(batch, range(1, batch.ndim), scratch)


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


def lorenzo_inverse(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_transform`: prefix sums along every axis,
    **in place** on ``residuals`` (also the return value; pass a copy to
    keep the residuals) — :func:`lorenzo_inverse_batch_inplace` on a
    stack of one."""
    if residuals.ndim < 1 or residuals.ndim > 3:
        raise ValueError(f"lorenzo_inverse supports 1-3 dimensions, got {residuals.ndim}")
    lorenzo_inverse_batch_inplace(residuals[None])
    return residuals


def lorenzo_inverse_batch_inplace(batch: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_transform_batch_inplace`: prefix sums along
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
