"""Linear-scaling quantization with strict error-bound control.

Implements cuSZ-style *dual quantization*: the data is first snapped to
an integer lattice of pitch ``2*eb`` (guaranteeing ``|x - x'| <= eb``
pointwise), and prediction then runs entirely on integers.  Two
error-bound modes are supported, matching SZ:

- ``abs``    — absolute error bound (the mode the paper requires; ZFP's
  lack of it is why the paper picked SZ),
- ``pw_rel`` — pointwise relative bound, realized as an absolute bound in
  log space (valid for strictly positive fields such as densities and
  temperature).

Residual integers are *folded* into small non-negative symbols (code
stream layout 2): symbol ``0`` marks an outlier and a residual ``r`` with
``|r| < radius`` becomes ``zigzag(r) + 1`` (``0 -> 1, -1 -> 2, 1 -> 3,
...``), so the symbols a smooth block produces cluster at the bottom of
the alphabet and narrow to one byte.  Residuals that do not fit are
routed to an outlier channel (positions + exact lattice values) so the
bound holds for every point regardless of data pathology.  This module
is the only place the symbol map is written down; the retired layout-1
map (``r + radius``) survives as a decoder in
:mod:`repro.compression.compat`.

Each step is one batched kernel over a ``(B, n)`` stack of same-shape
blocks, and there is no single-block form: a lone block is a stack of
one.  :mod:`repro.compression.sz` runs them on its chunks,
:mod:`repro.compression.regression` on its tile stack, and the
retired-layout decoders call the same unfold.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "DEFAULT_RADIUS",
    "quantize_lattice_batch",
    "pw_rel_to_log_abs",
    "encode_residuals_batch",
    "unfold_symbols_into",
]

DEFAULT_RADIUS = 1 << 15


#: Largest ``max |q|`` (exclusive) the front runs on an int32 lattice.
#: Every 1-3-D Lorenzo residual is a mixed difference of at most eight
#: lattice values, so ``|r| <= 8 * (2**27 - 1) < 2**30``, its zigzag is
#: below ``2**31`` and its folded symbol fits int32: the narrow lattice
#: gives the wide one's residuals, symbols and outliers value for value.
INT32_LATTICE_LIMIT = 1 << 27

#: Largest ``max |q|`` (exclusive) the int64 lattice takes.
INT64_LATTICE_LIMIT = 1 << 62


def quantize_lattice_batch(work: np.ndarray) -> np.ndarray | None:
    """The quantize step: round onto the lattice, then cast to the
    narrowest integer type the rows' range proves exact.  The
    reconstruction ``2*eb*q`` satisfies ``|x - 2*eb*q| <= eb`` exactly
    (ties round to even, still within the bound).

    ``work`` is a ``(B, n)`` float64 stack already holding each block's
    ``data / (2*eb)`` (the caller owns the divide so ``pw_rel`` can fuse
    its log pass into the same buffer); it is rounded in place.  Returns
    the lattice, allocated here with ``work``'s shape: int32 when every
    ``|q| < INT32_LATTICE_LIMIT``, else int64.  Returns ``None`` when a
    value is non-finite or ``|q|`` reaches :data:`INT64_LATTICE_LIMIT`
    (a NaN fails the range test too); the caller, which knows what the
    rows are, raises.
    """
    np.rint(work, out=work)
    top = max(float(work.max()), -float(work.min()))
    if not top < INT64_LATTICE_LIMIT:
        return None
    lattice = np.empty(work.shape, np.int32 if top < INT32_LATTICE_LIMIT else np.int64)
    np.copyto(lattice, work, casting="unsafe")  # values are integral: cast is exact
    return lattice


def pw_rel_to_log_abs(rel_eb: float) -> float:
    """Absolute log-space bound equivalent to a pointwise relative bound.

    With ``y = ln x`` and ``|y - y'| <= a``, the reconstruction satisfies
    ``|x' / x - 1| <= e**a - 1``; choosing ``a = ln(1 + rel_eb)`` makes
    the relative error at most ``rel_eb`` on the high side and tighter on
    the low side.
    """
    rel_eb = check_positive(rel_eb, "rel_eb")
    return float(np.log1p(rel_eb))


def encode_residuals_batch(
    res: np.ndarray,
    radius: int,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fold a ``(B, n)`` stack of int32 or int64 residuals into symbols,
    in place.

    ``res`` holds one flattened block of Lorenzo residuals per row and is
    overwritten with the folded symbols (see the module docstring).  The
    sign shift and the unsigned view follow ``res``'s dtype.  The zigzag
    is a bijection on the dtype's bit patterns, so int64 residuals that
    wrapped in the Lorenzo pass still round-trip through the outlier
    channel; an int32 stack is one :func:`quantize_lattice_batch` proved
    never wraps, so its symbols are the int64 ones value for value.
    Returns ``(counts, positions, values, maxes)``: ``counts[b]`` is
    block ``b``'s outlier count, ``positions``/``values`` concatenate the
    per-block within-block flat indices and exact int64 residuals in
    block order, and ``maxes[b]`` is row ``b``'s largest symbol (what
    fixes its stored width).  ``scratch`` (``res``'s dtype, ``>= B*n``
    elements) is optional: the batched front passes the buffer its
    Lorenzo step is done with; without it the fold allocates one.
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    n_blocks, block_len = res.shape
    flat = res.reshape(-1)
    unsigned = np.dtype(f"u{res.dtype.itemsize}")
    if scratch is None:
        scratch = np.empty(flat.size, res.dtype)
    sign = scratch.reshape(-1)[: flat.size]
    np.right_shift(flat, 8 * res.dtype.itemsize - 1, out=sign)
    np.left_shift(flat, 1, out=flat)
    np.bitwise_xor(flat, sign, out=flat)  # zigzag(r), read as unsigned
    folded = flat.view(unsigned)
    # |r| < radius  <=>  zigzag(r) <= 2*radius - 2; a bound past the
    # unsigned range clamps to its top, which no zigzag exceeds.
    limit = min(2 * radius - 2, int(np.iinfo(unsigned).max))
    idx = np.flatnonzero(folded > unsigned.type(limit))
    sub = folded[idx].astype(np.uint64, copy=False)
    val = (sub >> np.uint64(1)).astype(np.int64) ^ -(sub & np.uint64(1)).astype(np.int64)
    flat[idx] = -1
    flat += 1  # fits: zigzag + 1; outliers: -1 + 1 = 0, the marker
    block_ids = idx // block_len
    counts = np.bincount(block_ids, minlength=n_blocks).astype(np.int64, copy=False)
    pos = idx - block_ids * block_len
    return counts, pos.astype(np.int64, copy=False), val, res.max(axis=1)


def _unfold_inplace(res: np.ndarray) -> np.ndarray:
    res -= 1
    sign = res & 1
    np.negative(sign, out=sign)
    res >>= 1
    res ^= sign
    return res


#: The unfold of every one-byte symbol: the map a 256-entry lookup
#: applies in one pass.
_UNFOLD_BYTE = _unfold_inplace(np.arange(256, dtype=np.int64))


def unfold_symbols_into(symbols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Residuals of folded ``symbols`` (any integer dtype), written into
    ``out`` (int64, ``symbols``' shape) and returned.  Outlier slots
    (symbol 0) come back as 0; the caller scatters the outlier channel
    over them.  ``symbols`` may be ``out`` itself, an int64 stack of
    symbols unfolded in place."""
    if symbols.dtype == np.uint8:
        return _UNFOLD_BYTE.take(symbols, out=out, mode="clip")  # every byte indexes
    if out is not symbols:
        np.copyto(out, symbols, casting="unsafe")  # uint64 wraps as astype does
    return _unfold_inplace(out)
