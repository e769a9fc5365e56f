"""Canonical Huffman coding, built from scratch.

SZ's third stage entropy-codes the quantization integers with a
customized Huffman coder.  This module reimplements that stage:

- tree construction with :mod:`heapq` over the used symbols,
- *length-limited* codes (max length 16 by default, never above
  :data:`MAX_CODE_LENGTH`) via iterative frequency flattening, so the
  decoder can use a single flat lookup table of ``2**max_len`` entries,
- canonical code assignment in closed form, so the table serializes as
  just the code lengths,
- a whole-array encoder and a whole-array decoder: neither runs a Python
  loop per symbol.

Canonical codes in closed form
------------------------------
Sort the used symbols by ``(length, symbol)`` and let ``L`` be the
longest length.  A code's left-aligned start ``start[i]`` (its codeword
shifted up to ``L`` bits) is the cumulative Kraft sum
``sum(2**(L - len[j]) for j < i)``, so the codeword is
``start[i] >> (L - len[i])`` — exact for any lengths in that order,
valid or not.  The decode tables are each code's symbol and length
repeated over its ``2**(L - len)`` windows, zero past the Kraft sum.

Encode
------
Each code is left-aligned in the 32-bit big-endian word that starts at
its first byte (``len + 7 <= 31`` bits).  One ``bincount`` sums the words
per first byte and four byte lanes add them into the output.  Codes
never share a bit, so every sum is the OR.

Decode
------
Jump tables over bit positions.  For every bit position ``p`` the
window is the next ``L`` bits (zero past the end of the blob); its table
length gives ``next[p] = min(p + len, end)``, which clamps at the end as
a sequential reader does.  The code starts are the orbit of 0 under
``next``.  ``next`` is composed with itself into ``2**k``-step tables,
``k <= JUMP_LOG2``.  One Python step per ``2**JUMP_LOG2`` codes walks
the orbit; each stride is expanded back through the smaller tables, and
the symbols are read at the starts.  A start whose window matches no
code raises ``ValueError("corrupt bitstream: no code matches window")``.

Scratch is about 42 bytes per bit position: the window and
``JUMP_LOG2 + 1`` tables, all int64 because that is the index type
``np.take`` reads without a conversion pass.  So the stream is decoded in
segments of :data:`SEGMENT_BITS` positions, carrying the exact start
position from one segment into the next, in buffers each decode call
allocates once and every segment reuses: about 1.4 MB, whatever the
size of the block, freed when the call returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanTable", "build_code_lengths", "canonical_codewords"]

DEFAULT_MAX_CODE_LENGTH = 16
#: Longest code this module handles: a window and its byte offset fit
#: one 32-bit word (``24 + 7 <= 32``).
MAX_CODE_LENGTH = 24

#: The decoder's longest jump is ``2**JUMP_LOG2`` codes.  Each level
#: costs one gather over the segment and halves the Python steps.  Table
#: build plus decode of the 36 ``family-matrix-96`` Huffman rows (seed 7,
#: median of 7, one vCPU of a 2-vCPU Xeon VM) took 145 / 135 / 139 /
#: 144 ms at 2 / 3 / 4 / 5, segments of 2**15; the per-symbol loop it
#: replaced took 755 ms.
JUMP_LOG2 = 3
#: Bit positions per decode segment.  Same rows, ``JUMP_LOG2 = 3``:
#: 182 / 145 / 135 / 138 / 130 ms at 2**13 / ... / 2**17.  Flat from
#: 2**15 on, where a bigger segment only grows the scratch.
SEGMENT_BITS = 1 << 15

_POSITIONS = np.arange(SEGMENT_BITS + MAX_CODE_LENGTH)
_POSITIONS.flags.writeable = False


def build_code_lengths(freqs: np.ndarray, max_length: int = DEFAULT_MAX_CODE_LENGTH) -> np.ndarray:
    """Compute Huffman code lengths for ``freqs`` (zero-frequency symbols get 0).

    If the optimal tree exceeds ``max_length``, frequencies are halved
    (flattening the distribution) and the tree rebuilt — the same
    pragmatic length-limiting strategy zlib uses.  The resulting code is
    prefix-free and complete over the used symbols.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError(f"freqs must be 1-D, got shape {freqs.shape}")
    if (freqs < 0).any():
        raise ValueError("freqs must be non-negative")
    used = np.flatnonzero(freqs)
    lengths = np.zeros(len(freqs), dtype=np.uint8)
    if len(used) == 0:
        return lengths
    if len(used) == 1:
        lengths[used[0]] = 1
        return lengths
    if len(used) > (1 << max_length):
        raise ValueError(
            f"{len(used)} distinct symbols cannot all receive codes of "
            f"length <= {max_length}"
        )

    work = freqs.copy()
    while True:
        lens = _tree_code_lengths(work, used)
        if lens.max() <= max_length:
            lengths[used] = lens
            return lengths
        # Halve (rounding up so no used symbol drops to zero) and retry.
        # Terminates: once all frequencies reach 1 the tree is balanced
        # with depth ceil(log2(m)) <= max_length (guarded above).
        if (work[used] == 1).all():  # pragma: no cover - defensive
            raise RuntimeError("length limiting failed to converge")
        work[used] = (work[used] + 1) // 2


def _tree_code_lengths(freqs: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Code lengths (aligned with ``used``) from a standard Huffman tree."""
    m = len(used)
    # Heap items: (freq, node_id). Leaves are 0..m-1; internal nodes get
    # increasing ids, so a parent's id always exceeds its children's.
    heap: list[tuple[int, int]] = [(int(freqs[s]), i) for i, s in enumerate(used)]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []  # children of internal node m + k
    next_id = m
    while len(heap) > 1:
        f1, n1 = heapq.heappop(heap)
        f2, n2 = heapq.heappop(heap)
        merges.append((n1, n2))
        heapq.heappush(heap, (f1 + f2, next_id))
        next_id += 1
    # Top-down depth assignment: parents (higher ids) before children.
    depth = np.zeros(next_id, dtype=np.int64)
    for node_id in range(next_id - 1, m - 1, -1):
        left, right = merges[node_id - m]
        depth[left] = depth[node_id] + 1
        depth[right] = depth[node_id] + 1
    return depth[:m]


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, lens, starts)``: used symbols sorted by (length, symbol),
    their lengths, and their codes' starts left-aligned to the longest
    length (the exclusive cumulative Kraft sum in units of ``2**-L``)."""
    used = np.flatnonzero(lengths)
    order = used[np.argsort(lengths[used], kind="stable")]
    lens = lengths[order].astype(np.int64)
    if not order.size:
        return order, lens, lens
    spans = np.left_shift(1, lens[-1] - lens)
    return order, lens, np.cumsum(spans) - spans


def canonical_codewords(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords (right-aligned ints) for ``lengths``.

    Symbols are ordered by (length, symbol); codes of equal length are
    consecutive integers.  Zero-length symbols get codeword 0 (unused).
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    codewords = np.zeros(len(lengths), dtype=np.uint32)
    order, lens, starts = _canonical_order(lengths)
    if order.size:
        codewords[order] = starts >> (lens[-1] - lens)
    return codewords


@dataclass
class HuffmanTable:
    """A canonical Huffman code over the alphabet ``0..nsymbols-1``.

    Attributes
    ----------
    lengths:
        Per-symbol code length in bits (0 for unused symbols).
    codewords:
        Right-aligned canonical codewords.
    max_length:
        Longest code in the table; the decode table has ``2**max_length``
        entries.
    """

    lengths: np.ndarray
    codewords: np.ndarray

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        self.codewords = np.asarray(self.codewords, dtype=np.uint32)
        self.max_length = int(self.lengths.max()) if self.lengths.size else 0
        if self.max_length > MAX_CODE_LENGTH:
            raise ValueError(
                f"code length {self.max_length} exceeds the supported {MAX_CODE_LENGTH}"
            )
        self._decode_tables_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_frequencies(
        cls, freqs: np.ndarray, max_length: int = DEFAULT_MAX_CODE_LENGTH
    ) -> "HuffmanTable":
        lengths = build_code_lengths(freqs, max_length=max_length)
        return cls(lengths=lengths, codewords=canonical_codewords(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanTable":
        """Rebuild the table from serialized code lengths (canonical codes)."""
        lengths = np.asarray(lengths, dtype=np.uint8)
        return cls(lengths=lengths, codewords=canonical_codewords(lengths))

    # -- encode ---------------------------------------------------------

    def encode(self, symbols: np.ndarray) -> tuple[bytes, int]:
        """Encode ``symbols`` to a packed MSB-first bitstream.

        Returns ``(blob, nbits)``; the last byte is zero-padded.
        """
        symbols = np.asarray(symbols)
        if symbols.ndim != 1:
            raise ValueError(f"symbols must be 1-D, got shape {symbols.shape}")
        if symbols.size == 0:
            return b"", 0
        if symbols.min() < 0 or symbols.max() >= len(self.lengths):
            raise ValueError("symbol out of alphabet range")
        lens = self.lengths[symbols]
        if (lens == 0).any():
            raise ValueError("attempted to encode a symbol with no codeword")
        starts = np.cumsum(lens, dtype=np.int64)
        nbits = int(starts[-1])
        starts -= lens
        shift = (32 - (starts & 7) - lens).astype(np.uint32)
        words = np.left_shift(self.codewords[symbols], shift)
        nbytes = (nbits + 7) // 8
        # Exact in float64: the codes starting at one byte share no bit.
        per_byte = np.bincount(starts >> 3, weights=words, minlength=nbytes)
        lanes = per_byte.astype(">u4").view(np.uint8).reshape(nbytes, 4)
        out = np.zeros(nbytes + 3, dtype=np.uint8)
        for k in range(4):
            out[k : k + nbytes] += lanes[:, k]
        return out[:nbytes].tobytes(), nbits

    def encoded_nbits(self, symbols: np.ndarray) -> int:
        """Exact bit count :meth:`encode` would produce (without encoding)."""
        symbols = np.asarray(symbols)
        return int(np.sum(self.lengths[symbols], dtype=np.int64))

    # -- decode ---------------------------------------------------------

    def _decode_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(symbol, length, step)`` per ``max_length``-bit window.

        Length is 0 where no code matches.  Step is the length, but 1
        there, so the only fixed point of ``next`` is the stream's end.
        """
        if self._decode_tables_cache is None:
            size = 1 << self.max_length
            order, lens, starts = _canonical_order(self.lengths)
            keep = starts < size  # only an over-full (Kraft > 1) code drops any
            spans = np.minimum(
                np.left_shift(1, self.max_length - lens[keep]), size - starts[keep]
            )
            filled = int(spans.sum())
            sym_table = np.zeros(size, dtype=np.int32)
            len_table = np.zeros(size, dtype=np.uint8)
            sym_table[:filled] = np.repeat(order[keep], spans)
            len_table[:filled] = np.repeat(lens[keep], spans)
            self._decode_tables_cache = sym_table, len_table, np.maximum(len_table, 1)
        return self._decode_tables_cache

    def decode(self, blob: bytes, nsymbols: int) -> np.ndarray:
        """Decode ``nsymbols`` symbols from a packed bitstream."""
        if nsymbols == 0:
            return np.empty(0, dtype=np.int64)
        if self.max_length == 0:
            raise ValueError("cannot decode with an empty table")
        sym_table, len_table, step_table = self._decode_tables()
        L, end = self.max_length, 8 * len(blob)
        data = np.frombuffer(bytes(blob) + bytes(4), dtype=np.uint8)
        out = np.empty(nsymbols, dtype=np.int64)
        # One set of segment buffers, sized for the longest segment and
        # sliced to each one.
        longest = min(SEGMENT_BITS, end + 1)
        words = np.empty((longest + 7) // 8, np.intp)
        window_rows = np.empty((words.size, 8), np.intp)
        step_buf = np.empty(longest, np.uint8)
        jumps = np.empty((JUMP_LOG2 + 1, longest + L), np.intp)
        done, pos = 0, 0
        for seg_start in range(0, end + 1, SEGMENT_BITS):
            seg = min(SEGMENT_BITS, end + 1 - seg_start)
            windows = _windows(data, seg_start, seg, L, words, window_rows)
            # ``next`` local to the segment.  The L positions after it loop
            # on themselves, so an orbit leaving the segment stops at its
            # first start past it: where the next segment resumes.
            steps = step_buf[:seg]
            np.take(step_table, windows, out=steps, mode="clip")
            tables = jumps[:, : seg + L]
            nxt = tables[0]
            np.add(_POSITIONS[:seg], steps, out=nxt[:seg])
            np.minimum(nxt[:seg], end - seg_start, out=nxt[:seg])
            nxt[seg:] = _POSITIONS[seg : seg + L]
            need = nsymbols - done
            starts = _orbit(tables, pos - seg_start, seg, need)
            inside = int(np.searchsorted(starts, seg))
            found = np.take(windows, starts[: min(inside, need)])
            if not np.take(len_table, found).all():
                raise ValueError("corrupt bitstream: no code matches window")
            out[done : done + found.size] = np.take(sym_table, found)
            done += found.size
            if done == nsymbols:
                return out
            pos = seg_start + int(starts[inside])
        raise AssertionError("unreachable: the end of the stream is a fixed point")

    # -- serialization ---------------------------------------------------

    def serialize_lengths(self) -> bytes:
        """Serialize the table as its code-length array (canonical codes)."""
        return self.lengths.tobytes()

    @classmethod
    def deserialize_lengths(cls, blob: bytes) -> "HuffmanTable":
        return cls.from_lengths(np.frombuffer(blob, dtype=np.uint8))


def _windows(
    data: np.ndarray,
    first: int,
    count: int,
    width: int,
    words: np.ndarray,
    windows: np.ndarray,
) -> np.ndarray:
    """The ``width``-bit window at each of ``count`` bit positions from
    ``first`` (a multiple of 8) of the MSB-first stream ``data``, which
    carries 4 zero bytes past the stream, computed in the leading rows
    of the caller's ``words`` (intp) and ``windows`` (``(rows, 8)``
    intp) buffers."""
    nwords = (count + 7) // 8
    words = words[:nwords]
    # The big-endian 32-bit word at every byte: overlapping, unaligned reads.
    np.copyto(words, np.ndarray((nwords,), ">u4", data, first // 8, (1,)))
    windows = windows[:nwords]
    for r in range(8):
        np.right_shift(words, 32 - width - r, out=windows[:, r])
    windows &= (1 << width) - 1
    return windows.reshape(-1)[:count]


def _orbit(tables: np.ndarray, first: int, seg: int, need: int) -> np.ndarray:
    """The orbit of ``first`` under ``next`` (row 0 of ``tables``), in
    order, until it holds ``need`` positions or one at or past ``seg``.

    ``next`` never decreases a position, so the orbit is sorted.  Row
    ``k`` of ``tables`` is overwritten with ``next`` composed ``2**k``
    times; the orbit is walked in strides of ``2**JUMP_LOG2`` steps by
    the last row, and each stride is expanded back through the smaller
    ones.
    """
    for k in range(1, JUMP_LOG2 + 1):
        np.take(tables[k - 1], tables[k - 1], out=tables[k], mode="clip")
    far, cur = tables[-1].item, first
    strides = [cur]
    for _ in range(-(-need >> JUMP_LOG2) - 1):
        if cur >= seg:
            break
        cur = far(cur)
        strides.append(cur)
    starts = np.array(strides, dtype=np.intp)
    for table in reversed(tables[:-1]):
        starts = np.stack((starts, np.take(table, starts)), axis=1).reshape(-1)
    return starts
