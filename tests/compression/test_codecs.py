"""Entropy-stage codecs: exact round trips and registry behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import codecs
from repro.compression.codecs import HuffmanCodec, RawCodec, ZlibCodec, get_codec
from repro.util.errors import PayloadError

ALL_CODECS = [RawCodec(), ZlibCodec(), HuffmanCodec()]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundTrips:
    def test_basic(self, codec):
        codes = np.array([0, 1, 2, 3, 100, 65535, 3, 3, 3], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(codes), len(codes)), codes)

    def test_empty(self, codec):
        blob = codec.encode(np.empty(0, dtype=np.int64))
        assert codec.decode(blob, 0).size == 0

    def test_constant(self, codec):
        codes = np.full(1000, 42, dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(codes), len(codes)), codes)

    def test_rejects_negative(self, codec):
        with pytest.raises(ValueError, match="non-negative"):
            codec.encode(np.array([-1]))

    def test_rejects_2d(self, codec):
        with pytest.raises(ValueError, match="1-D"):
            codec.encode(np.zeros((2, 2), dtype=np.int64))


class TestCompressionBehaviour:
    def test_zlib_beats_raw_on_runs(self):
        codes = np.repeat(np.arange(10), 500)
        assert len(ZlibCodec().encode(codes)) < len(RawCodec().encode(codes))

    def test_huffman_beats_raw_on_skew(self):
        rng = np.random.default_rng(0)
        codes = np.where(rng.random(8000) < 0.95, 7, rng.integers(0, 256, 8000))
        assert len(HuffmanCodec().encode(codes)) < len(RawCodec().encode(codes))

    def test_raw_uses_minimal_dtype(self):
        small = np.arange(100, dtype=np.int64)  # fits uint8
        big = np.arange(100, dtype=np.int64) + 100_000  # needs uint32
        assert len(RawCodec().encode(small)) < len(RawCodec().encode(big))


class TestHuffmanHeader:
    """The bit count sizes the decode: it is checked against the code
    lengths before the packed bits are inflated."""

    @staticmethod
    def _with_nbits(blob: bytes, nbits: int) -> bytes:
        return blob[:4] + nbits.to_bytes(4, "little") + blob[8:]

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_bit_count_outside_what_n_symbols_span(self, delta, monkeypatch):
        codes = np.array([0] * 200 + [1] * 60 + [2] * 40)  # lengths 1, 2, 2
        blob = HuffmanCodec().encode(codes)
        assert int.from_bytes(blob[4:8], "little") == 200 + 2 * 100
        inflated = []
        real = codecs.inflate_exact
        monkeypatch.setattr(
            codecs, "inflate_exact", lambda b, n, what: inflated.append(what) or real(b, n, what)
        )
        nbits = 300 * 1 - 1 if delta < 0 else 300 * 2 + 1
        with pytest.raises(PayloadError, match=f"300 symbols do not span {nbits} bits"):
            HuffmanCodec().decode(self._with_nbits(blob, nbits), 300)
        assert inflated == ["huffman code lengths"]

    def test_bit_count_inside_the_span_but_wrong(self):
        """399 of 400 bits: same packed size, so only the final count over
        the decoded symbols can catch it."""
        codes = np.array([0] * 200 + [1] * 60 + [2] * 40)
        blob = HuffmanCodec().encode(codes)
        with pytest.raises(PayloadError, match="300 symbols do not span 399 bits"):
            HuffmanCodec().decode(self._with_nbits(blob, 399), 300)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_codec("zlib").name == "zlib"
        assert get_codec("huffman").name == "huffman"
        assert get_codec("raw").name == "raw"

    @pytest.mark.parametrize("cls", [RawCodec, ZlibCodec, HuffmanCodec])
    def test_codecs_are_their_names(self, cls):
        """A codec's configuration is its name: it takes no arguments, and
        ``get_codec`` takes a name only — an instance is refused, so no
        codec state can ride along outside a compressor's spec."""
        with pytest.raises(TypeError):
            cls(level=1)
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec(cls())

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("lz4")


@given(
    st.lists(st.integers(0, 70000), min_size=1, max_size=300),
    st.sampled_from(["raw", "zlib", "huffman"]),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(codes, name):
    arr = np.array(codes, dtype=np.int64)
    codec = get_codec(name)
    assert np.array_equal(codec.decode(codec.encode(arr), len(arr)), arr)
