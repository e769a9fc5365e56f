"""Entropy-stage codecs for quantization symbols.

SZ entropy-codes the quantization integers (Huffman + a lossless pass);
this module provides interchangeable backends:

- :class:`HuffmanCodec` — from-scratch canonical Huffman
  (:mod:`repro.compression.huffman`) followed by a zlib pass over the
  packed bits, mirroring SZ's Huffman+Zstd stack.
- :class:`ZlibCodec` — DEFLATE over the packed symbol bytes, written
  with zlib's run-length strategy: per-block Huffman trees plus runs,
  no LZ77 match search (byte planes of folded Lorenzo residuals have
  runs but almost no longer-range repeats, so the search bought
  nothing).  Rate behaviour is close to the Huffman stack while
  encode/decode run at C speed; it is the default for large experiments.
- :class:`RawCodec` — no entropy coding (debug / ablation baseline).

All codecs operate on non-negative integer arrays and round-trip exactly.

Packed bytes (``raw`` and ``zlib``)
-----------------------------------
A symbol row is stored at its *value-minimal* width ``k`` in {1, 2, 4, 8}
bytes.  ``k = 1`` rows are the symbols themselves; wider rows are split
into ``k`` little-endian **byte planes** — all low bytes, then all
second bytes, ... — so DEFLATE sees a noisy plane followed by
near-constant ones instead of the two interleaved.  One tag byte leads
the payload: the low seven bits hold ``k``, the high bit
(:data:`PLANES_BIT`) says "planes" and is set exactly when ``k > 1``.
A tag of 2/4/8 *without* the bit is the retired interleaved form, which
only :mod:`repro.compression.compat` still reads.

Every decoder validates what it reads — tag, section lengths, the exact
inflated size — and raises :class:`repro.util.errors.PayloadError`,
never a bare ``zlib.error`` and never a silently short or long array.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod

import numpy as np

from repro.compression.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.compression.kernels import byte_planes
from repro.util.errors import PayloadError

__all__ = [
    "PLANES_BIT",
    "Codec",
    "RawCodec",
    "ZlibCodec",
    "HuffmanCodec",
    "get_codec",
    "inflate_exact",
    "pack_symbols",
    "unpack_symbols",
    "deflate_channel",
    "inflate_channel",
    "pack_positions",
    "unpack_positions",
]

#: High bit of the width tag: the row is stored as byte planes.
PLANES_BIT = 0x80

#: The zlib level of every DEFLATE this module writes.  A constant, not
#: a knob: a codec's configuration is its name (all a
#: :class:`~repro.compression.api.CompressorSpec` records).
ZLIB_LEVEL = 6


def _minimal_uint_dtype(max_value: int) -> np.dtype:
    """Smallest unsigned dtype able to hold ``max_value``."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValueError(f"value {max_value} exceeds uint64 range")


def inflate_exact(blob: bytes, nbytes: int, what: str) -> bytes:
    """Inflate a zlib stream that must hold exactly ``nbytes`` bytes.

    Output is capped at ``nbytes + 1`` so a hostile stream cannot size
    the allocation; a truncated stream, trailing bytes after it and any
    other length are all :class:`PayloadError`.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(blob, nbytes + 1)
    except zlib.error as exc:
        raise PayloadError(f"{what}: {exc}") from None
    if len(raw) != nbytes or not inflater.eof or inflater.unused_data:
        raise PayloadError(
            f"{what}: stream does not inflate to exactly {nbytes} bytes"
        )
    return raw


def pack_symbols(symbols: np.ndarray) -> np.ndarray:
    """Pack a 1-D non-negative integer row into its ``(k, n)`` uint8
    byte rows (``k`` = value-minimal width; see the module docstring)."""
    k = _minimal_uint_dtype(int(symbols.max()) if symbols.size else 0).itemsize
    return byte_planes(symbols, np.empty((k, symbols.size), dtype=np.uint8))


def _tag_of(packed: np.ndarray) -> bytes:
    k = packed.shape[0]
    return bytes([k | PLANES_BIT if k > 1 else k])


def _checked_planes(tag: int, raw: bytes, n: int, what: str) -> tuple[int, bytes]:
    """``(k, raw)`` once ``tag`` names a known width and ``raw`` holds
    exactly the ``k`` planes of ``n`` symbols."""
    k = _width_of(tag, what)
    if len(raw) != n * k:
        raise PayloadError(
            f"{what}: {len(raw)} symbol bytes, expected {n} x {k} = {n * k}"
        )
    return k, raw


def unpack_symbols(tag: int, raw: bytes, n: int, what: str) -> np.ndarray:
    """Inverse of :func:`pack_symbols` for ``n`` symbols under width tag
    ``tag``; returns a ``(n,)`` array of the ``k``-byte unsigned dtype."""
    k, raw = _checked_planes(tag, raw, n, what)
    if k == 1:
        return np.frombuffer(raw, dtype=np.uint8)
    # Shift the planes together from the top: k - 1 vectorized passes at
    # the symbol width instead of a byte-strided (n, k) interleave copy.
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(k, n)
    symbols = planes[k - 1].astype(f"<u{k}")
    for plane in planes[k - 2 :: -1]:
        symbols <<= 8
        symbols |= plane
    return symbols


def _width_of(tag: int, what: str) -> int:
    k = tag & ~PLANES_BIT
    if k not in (1, 2, 4, 8) or bool(tag & PLANES_BIT) != (k > 1):
        raise PayloadError(f"{what}: unknown width tag 0x{tag:02x}")
    return k


# -- side channels (outlier positions / values, predictor masks) -------------


def deflate_channel(buf: "bytes | np.ndarray") -> bytes:
    """zlib-compress a side-channel buffer; empty channels store ``b""``
    (no ~8 dead bytes of zlib framing per outlier-free block)."""
    return zlib.compress(buf, ZLIB_LEVEL) if len(buf) else b""


def inflate_channel(blob: bytes, nbytes: int, what: str) -> bytes:
    """Inverse of :func:`deflate_channel` for a channel of exactly
    ``nbytes`` bytes (an empty channel must be ``b""``)."""
    if nbytes == 0:
        if blob:
            raise PayloadError(f"{what}: {len(blob)} bytes stored for an empty channel")
        return b""
    return inflate_exact(blob, nbytes, what)


def pack_positions(arr: np.ndarray) -> bytes:
    """Serialize outlier positions: ``[1B itemsize][zlib(narrowed ints)]``.

    The caller narrows ``arr`` to the smallest uint dtype covering the
    block size, so a 64^3 block spends 4 bytes per outlier position
    instead of int64's 8 before DEFLATE even starts.  Empty channels
    store ``b""``.
    """
    if not arr.size:
        return b""
    return bytes([arr.dtype.itemsize]) + zlib.compress(arr, ZLIB_LEVEL)


def unpack_positions(blob: bytes, count: int, what: str = "outlier positions") -> np.ndarray:
    """Read ``count`` positions written by :func:`pack_positions` (int64)."""
    if count == 0 or not blob:
        if count or blob:
            raise PayloadError(f"{what}: {len(blob)} bytes stored for {count} positions")
        return np.empty(0, dtype=np.int64)
    k = blob[0]
    if k not in (1, 2, 4, 8):
        raise PayloadError(f"{what}: unknown width tag 0x{k:02x}")
    raw = inflate_exact(memoryview(blob)[1:], count * k, what)
    return np.frombuffer(raw, dtype=f"<u{k}").astype(np.int64)


class Codec(ABC):
    """Round-trip codec for 1-D non-negative integer arrays."""

    name: str = "abstract"

    #: What :meth:`encode_row` consumes: the packed ``(k, n)`` uint8 byte
    #: rows (``True``) or the 1-D symbol values themselves (``False``).
    #: The batched compressor front prepares rows accordingly, once per
    #: group, so entropy threads only ever see contiguous rows.
    byte_oriented: bool = True

    def encode(self, codes: np.ndarray) -> bytes:
        """Encode ``codes`` into a self-describing byte blob."""
        codes = self._validate(codes)
        return self.encode_row(pack_symbols(codes) if self.byte_oriented else codes)

    @abstractmethod
    def encode_row(self, row: np.ndarray) -> bytes:
        """Encode one prepared row (see :attr:`byte_oriented`) — the hot
        path: no validation, no min/max rescans.  Byte-identical to
        :meth:`encode` on the same symbols."""

    @abstractmethod
    def decode(self, blob: bytes, n: int) -> np.ndarray:
        """Recover exactly ``n`` symbols from ``blob`` (an unsigned or
        int64 array; raises :class:`PayloadError` on bytes that fail
        validation)."""

    def decode_planes(self, blob: bytes, n: int) -> tuple[int, bytes]:
        """Byte-oriented codecs: ``(k, the n*k stored plane bytes)``,
        validated exactly as :meth:`decode` validates them but not yet
        shifted together — what a group decoder stacks across blocks."""
        raise NotImplementedError(f"{self.name} codes are not byte planes")

    @staticmethod
    def _validate(codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ValueError(f"codes must be 1-D, got shape {codes.shape}")
        if codes.size and codes.min() < 0:
            raise ValueError("codes must be non-negative")
        return codes


class RawCodec(Codec):
    """Store the packed symbol bytes verbatim."""

    name = "raw"

    def encode_row(self, row: np.ndarray) -> bytes:
        return _tag_of(row) + row.tobytes()

    def decode(self, blob: bytes, n: int) -> np.ndarray:
        if not blob:
            raise PayloadError("raw codes: empty payload")
        return unpack_symbols(blob[0], memoryview(blob)[1:], n, "raw codes")

    def decode_planes(self, blob: bytes, n: int) -> tuple[int, bytes]:
        if not blob:
            raise PayloadError("raw codes: empty payload")
        return _checked_planes(blob[0], memoryview(blob)[1:], n, "raw codes")


class ZlibCodec(Codec):
    """DEFLATE over the packed symbol bytes.

    Rows are deflated with ``Z_RLE`` — Huffman coding plus distance-one
    runs, no LZ77 match search — and the deflate block is ended at every
    plane boundary (``Z_BLOCK``), so a noisy low plane and a
    near-constant high one never share a Huffman tree.  Both are
    constants of the codec, not parameters: on the byte planes this
    library writes they are faster *and* smaller than the default
    strategy (README, "Payload layouts"), and the output is one ordinary
    zlib stream, so :meth:`decode` — which also reads every
    default-strategy stream written before — is untouched by them.  So
    is the level (:data:`ZLIB_LEVEL`): under ``Z_RLE`` levels 1-9 write
    the same bytes.
    """

    name = "zlib"
    #: A class constant, read by the bench's bare-zlib floor.
    level = ZLIB_LEVEL

    def encode_row(self, row: np.ndarray) -> bytes:
        # zlib consumes each contiguous plane's buffer directly, so the
        # only full copy on this path is DEFLATE's own output.
        deflater = zlib.compressobj(ZLIB_LEVEL, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        parts = [_tag_of(row)]
        for plane in row[:-1]:
            parts += (deflater.compress(plane), deflater.flush(zlib.Z_BLOCK))
        parts += (deflater.compress(row[-1]), deflater.flush())
        return b"".join(parts)

    def decode(self, blob: bytes, n: int) -> np.ndarray:
        _k, raw = self.decode_planes(blob, n)
        return unpack_symbols(blob[0], raw, n, "zlib codes")

    def decode_planes(self, blob: bytes, n: int) -> tuple[int, bytes]:
        if not blob:
            raise PayloadError("zlib codes: empty payload")
        k = _width_of(blob[0], "zlib codes")
        return k, inflate_exact(memoryview(blob)[1:], n * k, "zlib codes")


def _section(blob: bytes, pos: int, what: str, nbytes: int) -> tuple[bytes, int]:
    """Inflate the 4-byte-length-prefixed huffman section at ``pos``:
    ``(its exactly nbytes bytes, the position after it)``."""
    if pos + 4 > len(blob):
        raise PayloadError(f"huffman {what}: payload ends before the section")
    size = int.from_bytes(blob[pos : pos + 4], "little")
    pos += 4
    if pos + size > len(blob):
        raise PayloadError(f"huffman {what}: section overruns the payload")
    raw = inflate_exact(memoryview(blob)[pos : pos + size], nbytes, f"huffman {what}")
    return raw, pos + size


class HuffmanCodec(Codec):
    """Canonical Huffman + zlib pass, mirroring SZ's Huffman+lossless stack.

    The blob layout is::

        [4B alphabet size][4B bit count][zlib(code lengths)][zlib(packed bits)]

    where each zlib'd section is prefixed by its 4-byte length.  The
    encoder's code-length limit (``huffman.DEFAULT_MAX_CODE_LENGTH``,
    16) and zlib level (:data:`ZLIB_LEVEL`) are constants; the decoder
    accepts any prefix code up to ``huffman.MAX_CODE_LENGTH``.
    """

    name = "huffman"
    byte_oriented = False

    def encode_row(self, row: np.ndarray) -> bytes:
        if row.size == 0:
            return (0).to_bytes(4, "little") + (0).to_bytes(4, "little")
        freqs = np.bincount(row)
        alphabet = len(freqs)
        table = HuffmanTable.from_frequencies(freqs)
        bits_blob, nbits = table.encode(row)
        lens_z = zlib.compress(table.serialize_lengths(), ZLIB_LEVEL)
        bits_z = zlib.compress(bits_blob, ZLIB_LEVEL)
        header = alphabet.to_bytes(4, "little") + nbits.to_bytes(4, "little")
        return (
            header
            + len(lens_z).to_bytes(4, "little")
            + lens_z
            + len(bits_z).to_bytes(4, "little")
            + bits_z
        )

    def decode(self, blob: bytes, n: int) -> np.ndarray:
        if len(blob) < 8:
            raise PayloadError(f"huffman codes: {len(blob)}-byte payload has no header")
        alphabet = int.from_bytes(blob[0:4], "little")
        nbits = int.from_bytes(blob[4:8], "little")
        if n == 0 or alphabet == 0:
            if n or alphabet or nbits or len(blob) != 8:
                raise PayloadError("huffman codes: empty table cannot decode symbols")
            return np.empty(0, dtype=np.int64)
        raw, pos = _section(blob, 8, "code lengths", alphabet)
        lengths = np.frombuffer(raw, dtype=np.uint8)
        used = lengths[lengths > 0]
        if (
            not used.size
            or used.max() > MAX_CODE_LENGTH
            or np.ldexp(1.0, -used.astype(np.int64)).sum() > 1.0
        ):
            raise PayloadError("huffman codes: code lengths are not a prefix code")
        # The packed bits and the decoder's pass over them scale with the
        # bit count: size nothing from one no n symbols of these lengths span.
        if not n * int(used.min()) <= nbits <= n * int(used.max()):
            raise PayloadError(f"huffman codes: {n} symbols do not span {nbits} bits")
        packed, pos = _section(blob, pos, "packed bits", (nbits + 7) // 8)
        if pos != len(blob):
            raise PayloadError(f"huffman codes: {len(blob) - pos} trailing bytes")
        table = HuffmanTable.from_lengths(lengths)
        try:
            symbols = table.decode(packed, n)
        except ValueError as exc:
            raise PayloadError(f"huffman codes: {exc}") from None
        if table.encoded_nbits(symbols) != nbits:
            raise PayloadError(f"huffman codes: {n} symbols do not span {nbits} bits")
        return symbols


_CODECS: dict[str, type[Codec]] = {
    "raw": RawCodec,
    "zlib": ZlibCodec,
    "huffman": HuffmanCodec,
}


def get_codec(name: str) -> Codec:
    """The codec named ``name`` (``raw`` / ``zlib`` / ``huffman``)."""
    cls = _CODECS.get(name)
    if cls is None:
        raise ValueError(f"unknown codec {name!r}; options: {sorted(_CODECS)}")
    return cls()
