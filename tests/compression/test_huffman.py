"""Canonical Huffman coding: optimality, limits, round trips, and the
whole-array encoder and decoder against the per-symbol loops they
replaced (frozen below as the reference)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import huffman
from repro.compression.huffman import (
    HuffmanTable,
    build_code_lengths,
    canonical_codewords,
)
from repro.compression.sz import SZCompressor, decompress

# -- the per-symbol reference, frozen ------------------------------------------


def loop_codewords(lengths: np.ndarray) -> np.ndarray:
    codewords = np.zeros(len(lengths), dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if len(used) == 0:
        return codewords
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        cur_len = int(lengths[sym])
        code <<= cur_len - prev_len
        codewords[sym] = code
        code += 1
        prev_len = cur_len
    return codewords


def loop_decode_tables(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    codewords = loop_codewords(lengths)
    L = int(lengths.max())
    sym_table = np.zeros(1 << L, dtype=np.int32)
    len_table = np.zeros(1 << L, dtype=np.uint8)
    for sym in np.flatnonzero(lengths):
        l = int(lengths[sym])
        cw = int(codewords[sym])
        lo = cw << (L - l)
        hi = (cw + 1) << (L - l)
        sym_table[lo:hi] = sym
        len_table[lo:hi] = l
    return sym_table, len_table


class LoopBitReader:
    """MSB-first peek/consume: a peek past the end reads zeros, a consume
    past it stops there."""

    def __init__(self, blob: bytes) -> None:
        self._data = blob
        self._pos = 0
        self._buf = 0
        self._nbuf = 0

    def peek(self, width: int) -> int:
        while self._nbuf < width and self._pos < len(self._data):
            self._buf = (self._buf << 8) | self._data[self._pos]
            self._pos += 1
            self._nbuf += 8
        if self._nbuf >= width:
            return (self._buf >> (self._nbuf - width)) & ((1 << width) - 1)
        return (self._buf << (width - self._nbuf)) & ((1 << width) - 1)

    def consume(self, width: int) -> None:
        if width > self._nbuf:
            width = self._nbuf
        self._nbuf -= width
        self._buf &= (1 << self._nbuf) - 1


def loop_decode(lengths: np.ndarray, blob: bytes, nsymbols: int) -> np.ndarray:
    sym_table, len_table = loop_decode_tables(lengths)
    L = int(lengths.max())
    out = np.empty(nsymbols, dtype=np.int64)
    reader = LoopBitReader(blob)
    for i in range(nsymbols):
        window = reader.peek(L)
        code_len = int(len_table[window])
        if code_len == 0:
            raise ValueError("corrupt bitstream: no code matches window")
        out[i] = sym_table[window]
        reader.consume(code_len)
    return out


def matrix_encode(lengths: np.ndarray, symbols: np.ndarray) -> tuple[bytes, int]:
    """The bit-matrix encoder: an ``(n, L)`` bit matrix, masked, packed."""
    lens = lengths[symbols]
    cw = loop_codewords(lengths)[symbols]
    L = int(lengths.max())
    shift = lens[:, None].astype(np.int32) - 1 - np.arange(L, dtype=np.int32)[None, :]
    bits = (cw[:, None] >> np.maximum(shift, 0).astype(np.uint32)) & 1
    flat = bits[shift >= 0].astype(np.uint8)
    return np.packbits(flat).tobytes(), int(flat.size)


def outcome(decode, *args):
    """``("ok", symbols)`` or ``("error", message)`` of one decode."""
    try:
        return "ok", decode(*args).tolist()
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def prefix_codes(draw, max_length: int = huffman.MAX_CODE_LENGTH) -> np.ndarray:
    """Code lengths of a prefix code over an alphabet with unused slots:
    complete or not, from one symbol up, some codes as long as the cap."""
    cap = draw(st.integers(1, max_length))
    leaves = [1] if cap == 1 or draw(st.booleans()) else [1, 1]
    # a chain down to the longest length, then random splits
    for _ in range((cap if draw(st.booleans()) else draw(st.integers(1, cap))) - 1):
        depth = leaves.pop() + 1
        leaves += [depth, depth]
    for pick in draw(st.lists(st.integers(0, 1 << 16), max_size=24)):
        splittable = [i for i, depth in enumerate(leaves) if depth < cap]
        if not splittable:
            break
        depth = leaves.pop(splittable[pick % len(splittable)]) + 1
        leaves += [depth, depth]
    if len(leaves) > 1 and draw(st.booleans()):
        del leaves[draw(st.integers(0, len(leaves) - 1))]  # an incomplete code
    slots = leaves + [0] * draw(st.integers(0, 4))
    return np.array(draw(st.permutations(slots)), dtype=np.uint8)


@st.composite
def coded_streams(draw, max_symbols: int = 200):
    """``(lengths, symbols)``: a prefix code and a row of its symbols."""
    lengths = draw(prefix_codes())
    used = np.flatnonzero(lengths)
    picks = draw(st.lists(st.integers(0, len(used) - 1), min_size=1, max_size=max_symbols))
    return lengths, used[np.array(picks)]


class TestCodeLengths:
    def test_two_symbols_get_one_bit(self):
        lengths = build_code_lengths(np.array([5, 3]))
        assert list(lengths) == [1, 1]

    def test_single_symbol(self):
        lengths = build_code_lengths(np.array([0, 7, 0]))
        assert lengths[1] == 1
        assert lengths[0] == lengths[2] == 0

    def test_empty(self):
        assert build_code_lengths(np.zeros(4, dtype=int)).sum() == 0

    def test_skewed_distribution_short_code_for_frequent(self):
        freqs = np.array([1000, 1, 1, 1, 1])
        lengths = build_code_lengths(freqs)
        assert lengths[0] == min(lengths[lengths > 0])

    def test_kraft_equality(self):
        """Huffman codes are complete: Kraft sum is exactly 1."""
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 1000, 64)
        lengths = build_code_lengths(freqs)
        assert np.isclose(np.sum(2.0 ** -lengths[lengths > 0].astype(float)), 1.0)

    def test_length_limit_respected(self):
        # Exponential frequencies force long optimal codes.
        freqs = (2 ** np.arange(30)).astype(np.int64)
        lengths = build_code_lengths(freqs, max_length=12)
        assert lengths[lengths > 0].max() <= 12
        # Still a valid prefix code.
        assert np.sum(2.0 ** -lengths[lengths > 0].astype(float)) <= 1.0 + 1e-12

    def test_rejects_negative_freqs(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_code_lengths(np.array([1, -1]))

    def test_rejects_alphabet_too_large_for_limit(self):
        with pytest.raises(ValueError, match="cannot all receive"):
            build_code_lengths(np.ones(100, dtype=int), max_length=6)

    def test_matches_entropy_for_dyadic(self):
        """Dyadic distributions compress exactly to entropy."""
        freqs = np.array([8, 4, 2, 1, 1])
        lengths = build_code_lengths(freqs)
        assert list(lengths) == [1, 2, 3, 4, 4]


class TestCanonicalCodewords:
    def test_prefix_free(self):
        lengths = np.array([2, 2, 2, 3, 3], dtype=np.uint8)
        cw = canonical_codewords(lengths)
        codes = [
            format(cw[i], f"0{lengths[i]}b") for i in range(len(lengths)) if lengths[i]
        ]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_canonical_ordering(self):
        lengths = np.array([3, 2, 3, 2], dtype=np.uint8)
        cw = canonical_codewords(lengths)
        # Shorter codes numerically precede; equal lengths ordered by symbol.
        assert cw[1] < cw[3]
        assert cw[0] < cw[2]


class TestHuffmanTable:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        syms = rng.integers(0, 40, 5000)
        table = HuffmanTable.from_frequencies(np.bincount(syms))
        blob, nbits = table.encode(syms)
        assert np.array_equal(table.decode(blob, len(syms)), syms)

    def test_encoded_nbits_matches_encode(self):
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 10, 500)
        table = HuffmanTable.from_frequencies(np.bincount(syms))
        blob, nbits = table.encode(syms)
        assert nbits == table.encoded_nbits(syms)
        assert len(blob) == (nbits + 7) // 8

    def test_compression_close_to_entropy(self):
        rng = np.random.default_rng(5)
        p = np.array([0.6, 0.2, 0.1, 0.05, 0.05])
        syms = rng.choice(5, size=20000, p=p)
        table = HuffmanTable.from_frequencies(np.bincount(syms))
        bits_per_sym = table.encoded_nbits(syms) / len(syms)
        entropy = -(p * np.log2(p)).sum()
        assert entropy <= bits_per_sym <= entropy + 1.0

    def test_serialization_round_trip(self):
        syms = np.array([0, 0, 1, 2, 2, 2, 3])
        table = HuffmanTable.from_frequencies(np.bincount(syms))
        rebuilt = HuffmanTable.deserialize_lengths(table.serialize_lengths())
        assert np.array_equal(rebuilt.codewords, table.codewords)
        blob, _ = table.encode(syms)
        assert np.array_equal(rebuilt.decode(blob, len(syms)), syms)

    def test_encode_rejects_unknown_symbol(self):
        table = HuffmanTable.from_frequencies(np.array([1, 1]))
        with pytest.raises(ValueError, match="alphabet"):
            table.encode(np.array([5]))

    def test_encode_rejects_zero_length_symbol(self):
        table = HuffmanTable.from_frequencies(np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="no codeword"):
            table.encode(np.array([1]))

    def test_empty_encode(self):
        table = HuffmanTable.from_frequencies(np.array([1, 1]))
        blob, nbits = table.encode(np.empty(0, dtype=np.int64))
        assert blob == b"" and nbits == 0

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, data):
        syms = np.array(data, dtype=np.int64)
        table = HuffmanTable.from_frequencies(np.bincount(syms))
        blob, _ = table.encode(syms)
        assert np.array_equal(table.decode(blob, len(syms)), syms)


class TestAgainstTheLoops:
    """The closed forms and whole-array passes are the loops they replaced,
    bit for bit, error for error."""

    @given(st.lists(st.integers(0, 24), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_canonical_codewords_any_lengths(self, lengths):
        """Exact for any lengths, over-full (Kraft > 1) ones included."""
        lengths = np.array(lengths, dtype=np.uint8)
        assert np.array_equal(canonical_codewords(lengths), loop_codewords(lengths))

    @given(st.lists(st.integers(0, 16), min_size=1, max_size=40).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_decode_tables_any_lengths(self, lengths):
        lengths = np.array(lengths, dtype=np.uint8)
        sym_table, len_table, step_table = HuffmanTable.from_lengths(lengths)._decode_tables()
        ref_sym, ref_len = loop_decode_tables(lengths)
        assert np.array_equal(sym_table, ref_sym)
        assert np.array_equal(len_table, ref_len)
        assert np.array_equal(step_table, np.maximum(ref_len, 1))

    @given(coded_streams())
    @settings(max_examples=60, deadline=None)
    def test_encode_is_the_bit_matrix_encoder(self, stream):
        lengths, symbols = stream
        assert HuffmanTable.from_lengths(lengths).encode(symbols) == matrix_encode(
            lengths, symbols
        )

    @given(coded_streams(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_decode_is_the_loop(self, stream, data):
        """Intact, bit-flipped and truncated streams, asked for fewer, as
        many or more symbols than were coded: same symbols or same error."""
        lengths, symbols = stream
        table = HuffmanTable.from_lengths(lengths)
        blob, _ = table.encode(symbols)
        assert np.array_equal(table.decode(blob, len(symbols)), symbols)
        flip = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[flip // 8] ^= 0x80 >> (flip % 8)
        cut = data.draw(st.integers(0, len(blob)))
        n = data.draw(st.sampled_from([1, len(symbols) - 1, len(symbols), len(symbols) + 9]))
        for variant in (blob, bytes(flipped), blob[:cut]):
            assert outcome(table.decode, variant, max(n, 1)) == outcome(
                loop_decode, lengths, variant, max(n, 1)
            )

    @given(coded_streams(max_symbols=400), st.data())
    @settings(max_examples=60, deadline=None)
    def test_decode_carries_starts_across_segments(self, stream, data):
        """Segments of 32 or 64 bits: every carry is exercised."""
        lengths, symbols = stream
        table = HuffmanTable.from_lengths(lengths)
        blob, _ = table.encode(symbols)
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(huffman, "SEGMENT_BITS", data.draw(st.sampled_from([32, 64])))
            assert np.array_equal(table.decode(blob, len(symbols)), symbols)
            assert outcome(table.decode, bytes(flipped), len(symbols)) == outcome(
                loop_decode, lengths, bytes(flipped), len(symbols)
            )

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
    def test_stream_ends_on_a_byte_boundary(self, n):
        """All codes 8 or 4 bits: the stream fills its last byte, and
        asking past it reads the zero window, as the loop does."""
        for width in (8, 4):
            lengths = np.full(1 << width, width, dtype=np.uint8)
            count = n * 8 // width
            symbols = (np.arange(count) * 37 + 5) % (1 << width)
            table = HuffmanTable.from_lengths(lengths)
            blob, nbits = table.encode(symbols)
            assert nbits == 8 * len(blob)
            assert np.array_equal(table.decode(blob, count), symbols)
            assert outcome(table.decode, blob, count + 3) == outcome(
                loop_decode, lengths, blob, count + 3
            )

    @pytest.mark.parametrize("n", [1, 2, 9, 4097])
    def test_single_symbol_alphabet(self, n):
        table = HuffmanTable.from_frequencies(np.array([0, 0, 5]))
        blob, nbits = table.encode(np.full(n, 2))
        assert nbits == n and np.array_equal(table.decode(blob, n), np.full(n, 2))

    def test_a_row_spanning_several_segments(self):
        """~240 000 bits of a chain code (lengths 1, 2, ..., 24, 24):
        seven segments, each carry on a real boundary, 24-bit codes."""
        lengths = np.array(list(range(1, 25)) + [24], dtype=np.uint8)
        rng = np.random.default_rng(11)
        symbols = np.concatenate([np.minimum(rng.geometric(0.5, 120_000) - 1, 24), np.arange(25)])
        rng.shuffle(symbols)
        table = HuffmanTable.from_lengths(lengths)
        blob, nbits = table.encode(symbols)
        assert nbits > 6 * huffman.SEGMENT_BITS
        assert np.array_equal(table.decode(blob, len(symbols)), symbols)
        assert np.array_equal(loop_decode(lengths, blob, len(symbols)), symbols)
        assert (blob, nbits) == matrix_encode(lengths, symbols)

    def test_codes_longer_than_the_cap_are_refused(self):
        with pytest.raises(ValueError, match="exceeds the supported 24"):
            HuffmanTable.from_lengths(np.array([1, 25], dtype=np.uint8))


def test_128_cube_single_block_decode_is_bounded():
    """Decode scratch is segmented: a 128^3 single block (8 Mbit of codes)
    decodes in a few MB of scratch, not ~42 B per bit."""
    rng = np.random.default_rng(42)
    field = np.cumsum(rng.normal(0, 1, (128, 128, 128)), axis=2).astype(np.float32)
    block = SZCompressor(codec="huffman").compress(field, 3e-3 * float(np.ptp(field)))
    tracemalloc.start()
    try:
        recon = decompress(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(recon - field).max() <= 3e-3 * float(np.ptp(field)) * (1 + 1e-6)
    # 49.6 MB, against 48.0 MB for the per-symbol reader on this block
    assert peak <= 75 * 2**20, f"{peak / 2**20:.1f} MB"
