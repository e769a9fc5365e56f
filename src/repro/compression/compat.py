"""Decoders for stored forms no encoder writes any more.

Everything here is read-only history, kept so blocks built from old
stored bytes decode bit-exactly forever (pinned by the frozen fixtures
in ``tests/compression/fixtures``; the container that holds the
layout-1 ones is of the pre-JSON form, which only the tests read).  The
hot modules carry exactly one encoder and one decoder — code-stream
**layout 2** — and dispatch here for anything older
(:func:`decompress_v1` is the whole layout-1 SZ decoder):

- **layout 1 code streams** — every residual stored as ``r + radius``
  (``0`` = outlier), narrowed to the minimal unsigned width and handed to
  the codec *interleaved* (width tag without the planes bit);
- **bare-zlib int64 outlier positions** — the whole channel is one zlib
  stream of int64 (first byte ``0x78``, never a width tag);
- **zlib'd empty channels** — outlier-free blocks that stored
  ``zlib.compress(b"")`` instead of ``b""``.

The same validation contract as the live decoders applies: bytes that
fail it raise :class:`repro.util.errors.PayloadError`.
"""

from __future__ import annotations

import numpy as np

from repro.compression.codecs import (
    get_codec,
    inflate_exact,
    unpack_positions,
)
from repro.compression.kernels import unzigzag
from repro.compression.lorenzo import lorenzo_inverse_batch_inplace
from repro.compression.sz import (
    CompressedBlock,
    _bound_space_eb,
    _check_positions,
    _payload_blobs,
)
from repro.util.errors import PayloadError

__all__ = ["decompress_v1", "channels_v1", "residuals_v1"]


def decompress_v1(block: CompressedBlock) -> np.ndarray:
    """Reconstruct a dual-engine layout-1 block (float64): scatter the
    outliers over the residuals, prefix-sum, dequantize."""
    abs_eb = _bound_space_eb(block)
    residuals, out_pos, out_val = channels_v1(block)
    residuals[out_pos] = unzigzag(np.frombuffer(out_val, dtype=np.uint64))
    q = residuals.reshape(block.shape)
    lorenzo_inverse_batch_inplace(q[None])  # a stack of one
    work = np.multiply(q, 2.0 * abs_eb, dtype=np.float64)
    return work if block.mode == "abs" else np.exp(work, out=work)


def channels_v1(block: CompressedBlock) -> tuple[np.ndarray, np.ndarray, bytes]:
    """A layout-1 block's ``(residuals (n,) fresh int64, outlier
    positions, outlier value bytes)``, either engine — outlier slots of
    ``residuals`` hold a placeholder."""
    n = block.n_elements
    codes, pos_blob, val_blob = _payload_blobs(block)
    residuals = residuals_v1(block.codec_name, codes, n, block.radius)
    out_pos = _outlier_positions_v1(pos_blob, block.n_outliers)
    out_val = _inflate_channel_v1(val_blob, 8 * block.n_outliers, "outlier values")
    _check_positions(out_pos, n)
    return residuals, out_pos, out_val


def residuals_v1(codec_name: str, blob: bytes, n: int, radius: int) -> np.ndarray:
    """Residuals (fresh int64; outlier slots hold ``-radius``) of a
    layout-1 code payload: ``code - radius`` over interleaved codes."""
    if codec_name == "huffman":
        # The Huffman blob never carried a width tag; only the symbol
        # map differs between layouts.
        codes = get_codec("huffman").decode(blob, n)
    else:
        what = f"{codec_name} codes (layout 1)"
        if not blob or blob[0] not in (1, 2, 4, 8):
            raise PayloadError(f"{what}: unknown width tag {blob[:1]!r}")
        k = blob[0]
        raw = memoryview(blob)[1:]
        if codec_name == "zlib":
            raw = inflate_exact(raw, n * k, what)
        elif len(raw) != n * k:
            raise PayloadError(f"{what}: {len(raw)} code bytes, expected {n * k}")
        codes = np.frombuffer(raw, dtype=f"<u{k}")
    return np.subtract(codes, radius, dtype=np.int64)


def _outlier_positions_v1(blob: bytes, count: int) -> np.ndarray:
    """Outlier positions of a layout-1 block, legacy forms included."""
    if blob and blob[0] not in (1, 2, 4, 8):
        raw = inflate_exact(blob, 8 * count, "outlier positions (bare zlib int64)")
        return np.frombuffer(raw, dtype="<i8")
    return unpack_positions(blob, count)


def _inflate_channel_v1(blob: bytes, nbytes: int, what: str) -> bytes:
    """A layout-1 side channel of ``nbytes`` bytes; an empty one may be
    ``b""`` or a zlib stream of nothing."""
    if blob:
        return inflate_exact(blob, nbytes, what)
    if nbytes:
        raise PayloadError(f"{what}: empty payload, expected {nbytes} bytes")
    return b""
