"""A fixed-rate transform codec in the spirit of ZFP.

The paper chose SZ over ZFP because ZFP's fixed-rate mode cannot enforce
an absolute error bound (§2.2).  To let the benchmarks demonstrate that
trade-off we include a simplified ZFP-style codec:

- the field is tiled into 4x4x4 blocks,
- each block is normalized by a per-block binary exponent and converted
  to fixed point,
- an invertible integer S-transform (Haar-like lifting) decorrelates the
  block along every axis,
- coefficients are truncated to a deterministic per-coefficient bit
  allocation that favours low-frequency terms, meeting the exact bit
  budget ``rate`` bits/value.

The result is a real fixed-rate codec with unbounded (data-dependent)
pointwise error — precisely the property the rate-quality optimizer
cannot work with, which the ablation bench demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.compression.api import (
    CompressorCapabilities,
    CompressorSpec,
    check_out,
    decode_into,
)

__all__ = ["ZFPLikeCompressor", "ZFPBlockStream", "decompress"]

_BLOCK = 4
_PRECISION = 28  # fixed-point fractional bits inside a block
#: Stored magnitude width.  Fixed-point values are bounded by 2**_PRECISION,
#: and each of the three lifting axes can double the high-band magnitude
#: (|a - b| <= 2|a|max), so transform coefficients reach 2**(_PRECISION + 3).
#: A narrower field silently clamps rare large coefficients, which is
#: unbounded reconstruction error, not graceful truncation.
_WIDTH = _PRECISION + 3


def _s_transform_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invertible integer S-transform: (a, b) -> (floor((a+b)/2), a-b)."""
    low = (a + b) >> 1
    high = a - b
    return low, high


def _s_inverse_pairs(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = low + ((high + 1) >> 1)
    b = a - high
    return a, b


def _forward_axis(blocks: np.ndarray, axis: int) -> np.ndarray:
    """Two lifting levels along ``axis`` (length 4 -> [ll, lh, h0, h1])."""
    v = np.moveaxis(blocks, axis, -1)
    a0, a1, a2, a3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    l0, h0 = _s_transform_pairs(a0, a1)
    l1, h1 = _s_transform_pairs(a2, a3)
    ll, lh = _s_transform_pairs(l0, l1)
    out = np.stack([ll, lh, h0, h1], axis=-1)
    return np.moveaxis(out, -1, axis)


def _inverse_axis(blocks: np.ndarray, axis: int) -> np.ndarray:
    v = np.moveaxis(blocks, axis, -1)
    ll, lh, h0, h1 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    l0, l1 = _s_inverse_pairs(ll, lh)
    a0, a1 = _s_inverse_pairs(l0, h0)
    a2, a3 = _s_inverse_pairs(l1, h1)
    out = np.stack([a0, a1, a2, a3], axis=-1)
    return np.moveaxis(out, -1, axis)


def _coefficient_levels() -> np.ndarray:
    """Frequency level (0..6) of each coefficient in a 4x4x4 block.

    Along each axis positions map to levels [0, 1, 2, 2]; the block level
    is the sum, used to bias bit allocation toward low frequencies.
    """
    axis_level = np.array([0, 1, 2, 2])
    lv = axis_level[:, None, None] + axis_level[None, :, None] + axis_level[None, None, :]
    return lv


@lru_cache(maxsize=64)
def _bit_allocation(rate: float) -> np.ndarray:
    """Per-coefficient bit widths for a 4x4x4 block at ``rate`` bits/value.

    Deterministic water-filling: the budget (``64*rate`` bits) is spent
    one bit at a time on the lowest-level coefficient that currently has
    the fewest bits.  Keeping a coefficient costs its one sign bit too
    (charged when its first magnitude bit is granted), so the stored
    stream — ``sum(bits) + sign bits`` per block — adheres to the budget
    *exactly*: at most one bit per block goes unspent, and only when the
    remainder cannot pay for a new coefficient's sign.
    """
    budget = int(round(rate * _BLOCK**3))
    levels = _coefficient_levels().ravel()
    order = np.argsort(levels, kind="stable")
    bits = np.zeros(_BLOCK**3, dtype=np.int64)
    # Greedy rounds: sweep coefficients from low to high frequency, giving
    # each one bit per sweep, with low levels joining earlier sweeps.
    max_bits = _WIDTH
    done = False
    for sweep in range(max_bits):
        if done:
            break
        for idx in order:
            if budget <= 0:
                done = True
                break
            if bits[idx] >= max_bits:
                continue
            # Higher-frequency coefficients join later sweeps.
            if sweep < levels[idx]:
                continue
            # A coefficient's first bit also buys its sign bit.
            cost = 2 if bits[idx] == 0 else 1
            if budget < cost:
                continue
            bits[idx] += 1
            budget -= cost
    # The allocation is cached and shared across instances: freeze it.
    bits.flags.writeable = False
    return bits


@dataclass
class ZFPBlockStream:
    """Compressed representation of a field at fixed rate."""

    shape: tuple[int, ...]
    rate: float
    exponents: np.ndarray
    payload: bytes
    source_itemsize: int

    @property
    def n_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return len(self.payload) + self.exponents.size * 2 + 32

    @property
    def bit_rate(self) -> float:
        return 8.0 * self.nbytes / self.n_elements

    @property
    def ratio(self) -> float:
        return self.source_itemsize * self.n_elements / self.nbytes


class ZFPLikeCompressor:
    """Fixed-rate block-transform compressor (ZFP-style comparator).

    Implements the registry-wide
    :class:`~repro.compression.api.Compressor` contract, but being
    fixed-rate it **ignores the error bound** it is handed — precisely
    the §2.2 property :func:`~repro.core.selection.select_compressor`
    quantifies and rejects.

    Parameters
    ----------
    rate:
        Target bits per value (>= 1).  The stored stream meets this
        budget exactly up to per-block exponent metadata.
    """

    capabilities = CompressorCapabilities(fixed_rate=True)

    def __init__(self, rate: float = 8.0) -> None:
        if rate < 1.0:
            raise ValueError(f"rate must be >= 1 bit/value, got {rate}")
        self.rate = float(rate)
        self._bits = _bit_allocation(rate)

    @property
    def spec(self) -> CompressorSpec:
        return CompressorSpec.zfp_like(rate=self.rate)

    def compress(self, data: np.ndarray, eb: float | None = None) -> ZFPBlockStream:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"ZFPLikeCompressor expects 3-D data, got {arr.ndim}-D")
        source_itemsize = (
            np.asarray(data).dtype.itemsize if np.asarray(data).dtype.kind == "f" else 8
        )
        padded = _pad_to_blocks(arr)
        blocks = _tile(padded)  # (nblocks, 4, 4, 4)

        absmax = np.abs(blocks).reshape(len(blocks), -1).max(axis=1)
        # Per-block binary exponent; empty (all-zero) blocks use exponent 0.
        exps = np.where(absmax > 0, np.ceil(np.log2(np.maximum(absmax, 1e-300))), 0.0)
        exps = exps.astype(np.int16)
        scale = np.exp2(_PRECISION - exps.astype(np.float64))[:, None, None, None]
        fixed = np.rint(blocks * scale).astype(np.int64)

        for axis in (1, 2, 3):
            fixed = _forward_axis(fixed, axis)

        coeffs = fixed.reshape(len(blocks), -1)
        payload = _pack_coeffs(coeffs, self._bits)
        return ZFPBlockStream(
            shape=tuple(arr.shape),
            rate=self.rate,
            exponents=exps,
            payload=payload,
            source_itemsize=source_itemsize,
        )

    def compress_many(
        self, views: list[np.ndarray], ebs: object, out: list[np.ndarray] | None = None
    ) -> list[ZFPBlockStream]:
        """One stream per view; there is no batched kernel to share
        across views, and no bound to read from ``ebs``.  ``out`` is
        filled by decoding each stream."""
        outs = check_out(views, out)
        return decode_into(outs, [self.compress(v) for v in views], decompress)

    def decompress(self, stream: ZFPBlockStream) -> np.ndarray:
        """Streams are self-describing: one of any rate decodes here."""
        return decompress(stream)

    def __repr__(self) -> str:
        return f"ZFPLikeCompressor(rate={self.rate})"


def decompress(stream: ZFPBlockStream) -> np.ndarray:
    """Reconstruct a field from a :class:`ZFPBlockStream` (it records
    its own rate; no compressor instance is needed)."""
    nblocks = stream.exponents.size
    coeffs = _unpack_coeffs(stream.payload, nblocks, _bit_allocation(stream.rate))
    fixed = coeffs.reshape(nblocks, _BLOCK, _BLOCK, _BLOCK)
    for axis in (3, 2, 1):
        fixed = _inverse_axis(fixed, axis)
    scale = np.exp2(_PRECISION - stream.exponents.astype(np.float64))
    blocks = fixed.astype(np.float64) / scale[:, None, None, None]
    padded_shape = tuple(-(-s // _BLOCK) * _BLOCK for s in stream.shape)
    padded = _untile(blocks, padded_shape)
    sx, sy, sz = stream.shape
    return padded[:sx, :sy, :sz]


def _pad_to_blocks(arr: np.ndarray) -> np.ndarray:
    pads = [(0, (-s) % _BLOCK) for s in arr.shape]
    if any(p[1] for p in pads):
        return np.pad(arr, pads, mode="edge")
    return arr


def _tile(arr: np.ndarray) -> np.ndarray:
    nx, ny, nz = (s // _BLOCK for s in arr.shape)
    t = arr.reshape(nx, _BLOCK, ny, _BLOCK, nz, _BLOCK)
    return t.transpose(0, 2, 4, 1, 3, 5).reshape(-1, _BLOCK, _BLOCK, _BLOCK)


def _untile(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    nx, ny, nz = (s // _BLOCK for s in shape)
    t = blocks.reshape(nx, ny, nz, _BLOCK, _BLOCK, _BLOCK)
    return t.transpose(0, 3, 1, 4, 2, 5).reshape(shape)


class _StreamLayout(NamedTuple):
    """Where every bit of a block's packed stream comes from.

    A block stores, for every kept coefficient (``b > 0`` bits), one
    sign bit followed by the ``b`` most significant of its magnitude's
    ``_WIDTH`` bits, most significant first.
    """

    kept: np.ndarray  # coefficient index of each kept column
    widths: np.ndarray  # its b
    starts: np.ndarray  # stream offset of its sign bit
    column: np.ndarray  # per stream bit: its kept column
    shift: np.ndarray  # per stream bit: its weight's exponent (uint32)


def _stream_layout(bits: np.ndarray) -> _StreamLayout:
    kept = np.flatnonzero(bits > 0)
    widths = bits[kept].astype(np.int64)
    segment = widths + 1
    starts = np.cumsum(segment) - segment
    column = np.repeat(np.arange(kept.size), segment)
    # Magnitude bit j (1..b) of a segment weighs 2**(b - j); the sign bit
    # (j = 0) gets b, which reads a zero out of a value below 2**b.
    shift = np.repeat(widths + starts, segment) - np.arange(int(segment.sum()))
    return _StreamLayout(kept, widths, starts, column, shift.astype(np.uint32))


def _pack_coeffs(coeffs: np.ndarray, bits: np.ndarray) -> bytes:
    """Truncate each coefficient to its allocation and bit-pack the stream
    (layout: :class:`_StreamLayout`) in whole-array passes."""
    lay = _stream_layout(bits)
    kept = coeffs[:, lay.kept]
    mags = np.minimum(np.abs(kept).astype(np.uint64), (1 << _WIDTH) - 1)
    top = (mags >> (_WIDTH - lay.widths).astype(np.uint64)).astype(np.uint32)
    stream = (top[:, lay.column] >> lay.shift) & 1
    stream[:, lay.starts] = kept < 0
    return np.packbits(stream.astype(np.uint8)).tobytes()


def _unpack_coeffs(payload: bytes, nblocks: int, bits: np.ndarray) -> np.ndarray:
    lay = _stream_layout(bits)
    per_block = lay.shift.size
    mat = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=nblocks * per_block
    ).reshape(nblocks, per_block)
    weighted = np.left_shift(mat, lay.shift, dtype=np.uint32)
    weighted[:, lay.starts] = 0
    val = np.add.reduceat(weighted, lay.starts, axis=1).astype(np.int64)
    # Restore magnitude scale and add half an ulp of the truncated part
    # to centre the reconstruction (exactly-zero coefficients stay zero).
    drop = _WIDTH - lay.widths
    mag = val << drop
    mag = np.where(mag > 0, mag + np.where(drop > 0, 1 << np.maximum(drop - 1, 0), 0), 0)
    coeffs = np.zeros((nblocks, len(bits)), dtype=np.int64)
    coeffs[:, lay.kept] = np.where(mat[:, lay.starts] == 1, -mag, mag)
    return coeffs
