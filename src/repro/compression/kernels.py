"""Integer maps shared by the compressors: zigzag and the byte-plane split.

The cuSZ decomposition ("Understanding GPU-Based Lossy Compression for
Extreme-Scale Cosmological Simulations", arXiv:2004.00224) shows the
whole SZ pipeline is block-parallelizable end to end; here that is one
batched NumPy front over ``(B, n)`` / ``(B, nx, ny, nz)`` stacks of
same-shape blocks, written once.  Its steps live where their maths is
defined — :func:`repro.compression.quantizer.quantize_lattice_batch`,
:func:`repro.compression.lorenzo.lorenzo_transform_batch`,
:func:`repro.compression.quantizer.encode_residuals_batch` — and
their callers call them directly: :mod:`repro.compression.sz` on its
chunks, :mod:`repro.compression.regression` on its tile stack, and the
retired-layout decoders (:mod:`repro.compression.compat`,
:mod:`repro.compression.reference`).  None has a single-block form; a
lone block is a stack of one.  This module holds the
two maps more than one compressor needs: the signed <-> unsigned zigzag
(outlier values, the regression predictor's coefficients) and the
narrow-and-split into little-endian byte planes the entropy stage codes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = [
    "available_kernels",
    "get_kernels",
    "zigzag",
    "unzigzag",
    "byte_planes",
]


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to non-negative ints (0,-1,1,-2,... -> 0,1,2,3,...)."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> 1).astype(np.int64)) ^ -(v & 1).astype(np.int64)


def byte_planes(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Narrow and split in one pass: write the ``k`` low little-endian
    byte planes of the integers ``values`` (``(..., n)``, every value
    ``< 256**k``) into ``out`` (``(..., k, n)`` uint8), plane 0 (the
    low byte) first.  ``k = 1`` is the exact cast to uint8; each
    ``out[b]`` is the contiguous byte row the entropy stage codes."""
    v = np.asarray(values)
    k = out.shape[-2] if out.ndim >= 2 else 0
    if v.ndim < 1 or v.dtype.kind not in "ui":
        raise ValueError(f"byte_planes expects integer arrays, got {v.dtype}")
    if (
        out.dtype != np.uint8
        or not 1 <= k <= v.dtype.itemsize
        or out.shape != v.shape[:-1] + (k, v.shape[-1])
    ):
        raise ValueError(
            f"out must be uint8 of shape (..., k, n) = "
            f"{v.shape[:-1] + ('k <= %d' % v.dtype.itemsize, v.shape[-1])}, "
            f"got {out.dtype} {out.shape}"
        )
    # A little-endian view exposes byte j of every value at stride
    # itemsize; one strided copy narrows and transposes at once.
    le = v.astype(v.dtype.newbyteorder("<"), copy=False)
    if not le.flags.c_contiguous:
        le = np.ascontiguousarray(le)
    by_byte = le.view(np.uint8).reshape(v.shape + (v.dtype.itemsize,))
    np.copyto(out, np.moveaxis(by_byte[..., :k], -1, -2))
    return out


# The two names below have one reader: ``bench/harness.py`` stamps them
# into its provenance record (and ``bench/test_bench_smoke.py`` asserts
# ``kernels_auto`` is truthy).  There is one implementation, so they are
# constants; they go when the benchmark stops recording them (ROADMAP,
# "One benchmark, not two").


def available_kernels() -> tuple[str, ...]:
    return ("numpy",)


def get_kernels(name: str = "auto") -> SimpleNamespace:
    return SimpleNamespace(name="numpy")
