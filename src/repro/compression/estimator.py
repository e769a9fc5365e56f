"""Codec-free bit-rate estimation from quantization-code histograms.

Calibration (§3.5) and Foresight-style rate sweeps only need one scalar
per (partition, error bound): the entropy-coded size.  Paying the full
DEFLATE/Huffman stage to read it off is wasteful — the follow-up
ratio-quality modeling work (Jin et al., "Improving Prediction-Based
Lossy Compression Dramatically via Ratio-Quality Modeling") shows the
coded size is predictable from the quantization-code *histogram* alone.
This module implements that prediction, specialized per entropy stage:

``zlib``
    DEFLATE Huffman-codes the *bytes* of the packed symbol stream — the
    folded symbols at their minimal width, one contiguous byte plane
    after another (code-stream layout 2, see
    :mod:`repro.compression.codecs`) — and the codec writes it as
    run-length DEFLATE, ending the deflate block at every plane
    boundary: order-0 Huffman per plane plus distance-one runs, no LZ77
    search.  So the size tracks the per-plane marginal entropies (all
    derivable from the symbol histogram), each corrected by an
    empirically calibrated efficiency curve: runs take the coder to or
    below the marginal entropy at the low end (where a Huffman code
    alone could not go under one bit per byte), it pays up to ~17 %
    over it around 1.5 bits/byte (integer code lengths on a small
    alphabet, literal/length alphabet overhead) and sits within 1-3 %
    of the entropy from ~2.5 bits/byte up to 8 (stored blocks).

``huffman``
    The canonical-Huffman + zlib stack lands at the *symbol* entropy:
    Huffman's integer-length overhead is recovered by the trailing zlib
    pass, which also squeezes a few percent more out of low-entropy
    streams.  A table-serialization cost proportional to the number of
    used symbols is charged on top (it matters for small partitions).

``raw``
    Exact by construction: one dtype tag plus ``n * itemsize`` bytes.

Non-empty payloads are charged a small fixed container overhead, the
outlier channel its stored width per outlier, plus the fixed per-block
:data:`HEADER_BYTES` header.  Accuracy against the exact ``bit_rate``
is pinned by ``tests/compression/test_estimator.py`` for the regime the
estimator is calibrated for: blocks of **>= ~4096 values** (16^3 — the
smallest calibration partition in use; the paper's are 64^3).  Below
that, DEFLATE's per-stream adaptivity overhead dominates and estimates
degrade to the +-20% level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HEADER_BYTES",
    "PAYLOAD_CONTAINER_BYTES",
    "RQEstimate",
    "code_census_rows",
    "estimate_nbytes_rows",
    "predicted_psnr_db",
    "predicted_nrmse",
]

# Fixed per-block header cost charged to every compressed block: shape,
# dtype tag, eb, mode/engine/codec tags, payload lengths.  Charged so
# compression ratios are honest about metadata (SZ's own header is of
# this order).  Lives here (the leaf module) so the compressor and the
# estimator charge the identical constant.
HEADER_BYTES = 32

#: Approximate fixed cost of one non-empty entropy-coded payload: the
#: 1-byte dtype tag plus the zlib container (2-byte header, 4-byte
#: Adler-32) and deflate block framing.
PAYLOAD_CONTAINER_BYTES = 12

#: DEFLATE efficiency vs. the marginal entropy of one byte plane
#: (bits/byte), fitted to what ``ZlibCodec.encode_row`` writes (level 6,
#: run-length DEFLATE, one deflate block per plane at least) over
#: ~8 500 folded symbol rows (GRF and Nyx-proxy fields, 12^3 .. 64^3
#: blocks, both stored widths; ``benchmarks/fit_rate_estimator.py``
#: re-runs the fit — p95 error 3.1 %, none outside +-10 % / 0.1 bit):
#: ``coded_size ~= sum_planes interp(h_p) * h_p * n / 8 + tree_cost``.
_DEFLATE_EFF_H = np.array(
    [0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5,
     1.8, 2.1, 2.4, 2.8, 3.2, 3.6, 4.0, 4.5, 5.0, 5.7, 6.5, 8.0]
)
_DEFLATE_EFF_G = np.array(
    [1.13, 0.95, 0.98, 1.01, 1.04, 1.05, 1.08, 1.09, 1.10, 1.17,
     1.11, 1.06, 1.03, 1.03, 1.02, 1.01, 1.01, 1.01, 1.01, 1.01, 1.01, 1.02]
)

#: DEFLATE re-describes its dynamic Huffman trees (and restarts its
#: adaptivity) roughly once per 64 KiB input chunk; each chunk costs a
#: base plus ~0.3 bytes per distinct byte value, saturating at a
#: fraction of the chunk's entropy content (deflate falls back to
#: fixed/stored blocks rather than paying an oversized tree).
#: Negligible for whole fields, but the dominant correction for small
#: (e.g. 16^3) calibration partitions.
_DEFLATE_CHUNK_BYTES = 65536
_DEFLATE_TREE_BASE = 17.26
_DEFLATE_TREE_PER_BYTE_SYMBOL = 0.34
_DEFLATE_TREE_CAP_FRACTION = 0.06
_DEFLATE_TREE_CAP_BASE = 14.18

#: Gain of the zlib pass trailing the canonical Huffman encoder vs. the
#: symbol entropy, as a function of that entropy (bits/value): leftover
#: correlation in low-entropy streams compresses a few percent further.
_HUFF_ZLIB_H = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0])
_HUFF_ZLIB_G = np.array([0.82, 0.93, 0.95, 0.96, 1.0, 1.0, 1.0])

#: Linear model of the serialized (zlib'd) Huffman code-length table
#: over the folded alphabet:
#: ``bytes ~= _HUFF_TABLE_BASE + _HUFF_TABLE_PER_SYMBOL * n_used``.
_HUFF_TABLE_BASE = 59.0
_HUFF_TABLE_PER_SYMBOL = 0.44


def predicted_psnr_db(mse: float, value_range: float) -> float:
    """PSNR (dB) from a predicted MSE and the original's value range.

    The same formula :func:`repro.analysis.metrics.error_summary` applies
    to the measured error; zero MSE (or a degenerate constant field)
    predicts infinite PSNR, matching the measured-path convention.
    """
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if mse == 0 or value_range <= 0:
        return float("inf")
    return float(20.0 * np.log10(value_range) - 10.0 * np.log10(mse))


def predicted_nrmse(mse: float, value_range: float) -> float:
    """NRMSE from a predicted MSE and the original's value range."""
    if mse < 0:
        raise ValueError("mse must be non-negative")
    if mse == 0 or value_range <= 0:
        return 0.0
    return float(np.sqrt(mse) / value_range)


@dataclass(frozen=True)
class RQEstimate:
    """Predicted size *and* quality of one compressed block, without
    running a codec.

    One quantization-statistics probe yields both halves of the
    ratio-quality trade (Jin et al.'s R-Q modeling follow-up): the size
    from the code histogram, plus the MSE of the values the decoder will
    return, read off the probe's own lattice (every cell, outliers
    included, decodes to its lattice point) — no Lorenzo decode, no
    entropy codec, no decompression.
    """

    n_elements: int
    source_itemsize: int
    n_outliers: int
    code_bits_per_value: float  # predicted entropy-stage bits/value
    est_nbytes: float  # total predicted block size (header included)
    eb: float  #: absolute error bound the probe quantized at
    value_range: float  #: original min-max range (PSNR/NRMSE normalizer)
    predicted_mse: float  #: MSE of the decoded values (exact for the dual engine)

    @property
    def bit_rate(self) -> float:
        """Predicted average bits stored per value."""
        return 8.0 * self.est_nbytes / self.n_elements

    @property
    def ratio(self) -> float:
        """Predicted compression ratio vs. the uncompressed source."""
        return self.source_itemsize * self.n_elements / self.est_nbytes

    @property
    def predicted_psnr_db(self) -> float:
        """Predicted PSNR in dB against the probed original."""
        return predicted_psnr_db(self.predicted_mse, self.value_range)

    @property
    def predicted_nrmse(self) -> float:
        """Predicted range-normalized RMS error."""
        return predicted_nrmse(self.predicted_mse, self.value_range)


def _minimal_itemsize(max_symbol: np.ndarray | int) -> np.ndarray:
    """Bytes per symbol in the packed stream the codec actually sees."""
    return np.select(
        [np.less_equal(max_symbol, 0xFF), np.less_equal(max_symbol, 0xFFFF),
         np.less_equal(max_symbol, 0xFFFFFFFF)],
        [1, 2, 4],
        8,
    )


def code_census_rows(
    codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row sparse census of a ``(B, n)`` symbol matrix.

    Returns ``(symbols, counts, row_ids)`` — every row's distinct
    symbols (ascending) and their frequencies, concatenated, with
    ``row_ids`` mapping each entry back to its row.  ``O(n log n)`` in
    the row length, independent of the symbol span — at tight bounds a
    16^3 partition's folded symbols span 1e5+ values, which is what
    makes a dense histogram the wrong tool.  **Sorts the rows of
    ``codes`` in place** (callers pass a matrix they own); one
    group-wide sort plus a handful of flat passes replaces ``B``
    interpreter round-trips.
    """
    if codes.ndim != 2 or codes.size == 0:
        raise ValueError(
            f"expected a non-empty (B, n) code matrix, got shape {codes.shape}"
        )
    n = codes.shape[1]
    codes.sort(axis=1)
    flat = codes.reshape(-1)
    start = np.empty(flat.size, dtype=bool)
    start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    start[::n] = True  # a run never spans a row boundary
    pos = np.flatnonzero(start)
    counts = np.diff(pos, append=flat.size)
    return flat[pos], counts, pos // n


def _plane_entropies(
    syms: np.ndarray,
    counts: np.ndarray,
    row_ids: np.ndarray,
    itemsize: np.ndarray,
    n: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row, per-byte-plane marginal entropies of a concatenated
    census (see :func:`code_census_rows`; every row holds ``n`` symbols).

    Plane ``p`` of symbol ``s`` is ``(s >> 8p) & 0xFF``, so each plane's
    byte histogram is a weighted regrouping of the symbol frequencies.
    Returns ``(entropy (planes, rows) in bits/byte, distinct byte values
    (planes, rows))``; planes beyond a row's stored width are zero.
    """
    n_rows = itemsize.size
    planes = int(itemsize.max()) if n_rows else 0
    ent = np.zeros((planes, n_rows))
    distinct = np.zeros((planes, n_rows), dtype=np.int64)
    for p in range(planes):
        active = itemsize > p
        m = active[row_ids]
        key = row_ids[m] * 256 + ((syms[m] >> (8 * p)) & 0xFF)
        hist = np.bincount(key, weights=counts[m], minlength=n_rows * 256)
        hist = hist.reshape(n_rows, 256)
        occupied = hist > 0
        # -sum(q log2 q) == log2 n - sum(c log2 c)/n over occupied bins
        clog = np.where(occupied, hist * np.log2(np.maximum(hist, 1.0)), 0.0)
        ent[p] = np.where(active, np.log2(n) - clog.sum(axis=1) / n, 0.0)
        distinct[p] = np.where(active, occupied.sum(axis=1), 0)
    # log2 n - sum/n is exact only up to rounding; a constant plane is 0.
    np.maximum(ent, 0.0, out=ent)
    return ent, distinct


def _code_bits_rows(
    syms: np.ndarray,
    counts: np.ndarray,
    row_ids: np.ndarray,
    row_max: np.ndarray,
    n: float,
    codec_name: str,
) -> np.ndarray:
    """Predicted entropy-stage bits per value of each census row — the
    one place the per-codec size model is written down."""
    n_rows = row_max.size
    counts = np.asarray(counts, dtype=np.float64)
    itemsize = _minimal_itemsize(row_max)
    if codec_name == "raw":
        return 8.0 * itemsize.astype(np.float64)
    if codec_name == "huffman":
        # -sum(p log2 p) == log2 n - sum(c log2 c)/n; counts >= 1 so the
        # log never sees zero.
        sum_clog = np.bincount(row_ids, weights=counts * np.log2(counts), minlength=n_rows)
        h = np.maximum(np.log2(n) - sum_clog / n, 0.0)
        gain = np.interp(h, _HUFF_ZLIB_H, _HUFF_ZLIB_G)
        n_used = np.bincount(row_ids, minlength=n_rows)
        return h * gain + 8.0 * (_HUFF_TABLE_BASE + _HUFF_TABLE_PER_SYMBOL * n_used) / n
    # zlib / DEFLATE (also the fallback for unknown codecs: every
    # entropy stage in this library is deflate-backed).
    ent, distinct = _plane_entropies(syms, counts, row_ids, itemsize, n)
    hb = ent.sum(axis=0)
    coded = (np.interp(ent, _DEFLATE_EFF_H, _DEFLATE_EFF_G) * ent).sum(axis=0)
    chunks = np.maximum(1.0, np.ceil(n * itemsize / _DEFLATE_CHUNK_BYTES))
    ent_bytes = hb / 8.0 * n
    tree_per_chunk = np.minimum(
        _DEFLATE_TREE_BASE + _DEFLATE_TREE_PER_BYTE_SYMBOL * distinct.sum(axis=0),
        _DEFLATE_TREE_CAP_FRACTION * ent_bytes / chunks + _DEFLATE_TREE_CAP_BASE,
    )
    return np.minimum(coded + 8.0 * chunks * tree_per_chunk / n, 8.06 * itemsize)


def estimate_nbytes_rows(
    codes: np.ndarray,
    n_outliers: np.ndarray,
    codec_name: str = "zlib",
) -> tuple[np.ndarray, np.ndarray]:
    """Predict each row's total stored size from a ``(B, n)`` matrix of
    folded symbols (sorted in place — see :func:`code_census_rows`) and
    the rows' outlier counts; a single block is a ``(1, n)`` matrix.

    Returns ``(est_nbytes (B,), code_bits_per_value (B,))``.  The layout
    charged mirrors :class:`repro.compression.sz.CompressedBlock`:
    header + entropy-coded symbols + outlier positions/values (empty
    outlier channels cost nothing, matching the compressor's
    empty-payload short-circuit).  This is the probe-side analogue of
    the batched compression kernels: the whole group's size predictions
    come from one census and a few group-wide reductions, so probing 64
    partitions costs barely more than probing one.
    """
    syms, counts, row_ids = code_census_rows(codes)
    n_rows, n = codes.shape
    n_outliers = np.asarray(n_outliers)
    if n_outliers.shape != (n_rows,) or (n_outliers < 0).any():
        raise ValueError(
            f"n_outliers must be one non-negative count per row of codes, "
            f"got {n_outliers!r} for {n_rows} rows"
        )
    row_max = codes[:, -1]  # rows are now sorted ascending
    bits = _code_bits_rows(syms, counts, row_ids, row_max, float(n), codec_name)
    return _nbytes_from_bits(bits, n, n_outliers), bits


def _nbytes_from_bits(
    bits: np.ndarray, n_elements: int, n_outliers: np.ndarray
) -> np.ndarray:
    total = HEADER_BYTES + n_elements * bits / 8.0 + PAYLOAD_CONTAINER_BYTES
    # Positions are narrowed to the smallest uint covering the block
    # (plus a 1-byte width tag on the channel); values stay 8 bytes.
    pos_itemsize = int(_minimal_itemsize(max(n_elements - 1, 0)))
    return total + np.where(
        n_outliers > 0,
        n_outliers * (8 + pos_itemsize) + 1 + 2 * PAYLOAD_CONTAINER_BYTES,
        0.0,
    )
