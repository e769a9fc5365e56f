"""Frozen fixtures: bytes written by the parent of the layout-2 change,
and layout-2 bytes written before the entropy stage switched DEFLATE
strategy, must decode bit-exactly forever (see ``fixtures/README.md``).

The layout-1 ones are also the only tests that reach
:mod:`repro.compression.compat` — no encoder in ``src/`` can produce
either set of bytes any more.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.compression import sz
from repro.compression.api import decompress_any, decompress_many
from repro.compression.codecs import get_codec
from repro.compression.regression import AdaptiveBlockStream
from repro.compression.sz import CompressedBlock, decompress
from repro.util.errors import PayloadError

FIXTURES = Path(__file__).parent / "fixtures"


class TestFrozenContainer:
    def test_every_block_decodes_to_its_pinned_reconstruction(self, v1_blocks, recon_crc):
        assert len(v1_blocks) == 10
        for note, (block, crc) in v1_blocks.items():
            assert block.layout == 1, note
            assert recon_crc(block, decompress(block)) == crc, note

    def test_fixture_covers_every_codec_engine_and_legacy_form(self, v1_expected):
        rows = v1_expected["v1_container.npz"]
        assert {r["codec"] for r in rows} == {"zlib", "huffman", "raw"}
        assert {r["engine"] for r in rows} == {"dual", "classic"}
        assert {r["mode"] for r in rows} == {"abs", "pw_rel"}
        assert any(r["n_outliers"] for r in rows)
        assert sum("legacy" in r["note"] for r in rows) == 2

    def test_interleaved_two_byte_codes_are_in_the_fixture(self, v1_blocks):
        block, _ = v1_blocks["zlib uint16 codes"]
        assert block.payloads["codes"][0] == 2  # width tag without the planes bit

    def test_batch_decode_matches(self, v1_blocks, recon_crc, monkeypatch):
        blocks = [b for b, _ in v1_blocks.values()]
        for threads in (1, 3):
            monkeypatch.setattr(sz, "usable_cpus", lambda: threads)
            for (block, crc), recon in zip(v1_blocks.values(), decompress_many(blocks)):
                assert recon_crc(block, recon) == crc

    def test_blocks_built_without_the_layout_field_are_layout_1(self, v1_blocks):
        block, _ = v1_blocks["zlib f32"]
        fields = {f.name: getattr(block, f.name) for f in dataclasses.fields(block)}
        del fields["layout"]
        old = CompressedBlock(**fields)
        assert old.layout == 1
        assert np.array_equal(decompress(old), decompress(block))

    def test_layout_2_decoder_refuses_layout_1_bytes(self, v1_blocks):
        block, _ = v1_blocks["zlib uint16 codes"]
        block.layout = 2
        with pytest.raises(PayloadError, match="width tag"):
            decompress(block)

    def test_unknown_layout_is_a_typed_error(self, v1_blocks):
        block, _ = v1_blocks["zlib f32"]
        block.layout = 3
        with pytest.raises(PayloadError, match="layout"):
            decompress(block)


def _load_stream(name: str) -> AdaptiveBlockStream:
    with np.load(FIXTURES / name, allow_pickle=False) as data:
        meta = json.loads(data["__meta"].tobytes())
        payloads = {k: data[k].tobytes() for k in data.files if k != "__meta"}
    meta["shape"] = tuple(meta["shape"])
    return AdaptiveBlockStream(payloads=payloads, **meta)


class TestFrozenDefaultStrategyContainer:
    """Layout 2 as ``f201a6d`` wrote it: plain ``zlib.compress(row, 6)``
    streams, read by today's decoder."""

    def test_every_block_decodes_to_its_pinned_reconstruction(self, v2_blocks, recon_crc):
        assert len(v2_blocks) == 12
        for note, (block, row) in v2_blocks.items():
            assert block.layout == 2 and block.n_outliers == row["n_outliers"], note
            assert recon_crc(block, decompress(block)) == row["crc32"], note

    def test_fixture_covers_every_width_codec_dtype_and_mode(self, v2_expected):
        rows = v2_expected["v2_default_strategy.npz"]
        zlib_tags = {r["codes_tag"] for r in rows if r["codec"] == "zlib"}
        assert zlib_tags == {0x01, 0x82, 0x84}  # one byte, two and four byte planes
        assert {r["codec"] for r in rows} == {"zlib", "huffman", "raw"}
        assert {r["source_itemsize"] for r in rows} == {4, 8}
        assert {r["mode"] for r in rows} == {"abs", "pw_rel"}
        assert {len(r["shape"]) for r in rows} == {2, 3}
        assert {tuple(r["shape"]) for r in rows} >= {(8, 8, 8), (16, 16, 16)}
        assert any(r["n_outliers"] for r in rows if r["codec"] == "zlib")

    def test_the_code_streams_are_not_what_the_encoder_writes_now(self, v2_blocks):
        """The point of the fixture: re-encoding the decoded symbols gives
        different bytes, so only these frozen ones exercise the old form."""
        block, _ = v2_blocks["zlib f64 16^3 one-byte"]
        codec = get_codec("zlib")
        symbols = codec.decode(block.payloads["codes"], block.n_elements)
        assert codec.encode(symbols) != block.payloads["codes"]

    def test_batch_decode_matches(self, v2_blocks, recon_crc, monkeypatch):
        blocks = [b for b, _ in v2_blocks.values()]
        for threads in (1, 3):
            monkeypatch.setattr(sz, "usable_cpus", lambda: threads)
            for (block, row), recon in zip(v2_blocks.values(), decompress_many(blocks)):
                assert recon_crc(block, recon) == row["crc32"]

    def test_adaptive_stream_decodes_to_its_pinned_reconstruction(self, v2_expected):
        expected = v2_expected["v2_default_strategy.sz_adaptive.npz"]
        stream = _load_stream("v2_default_strategy.sz_adaptive.npz")
        assert stream.layout == 2 and stream.n_outliers == expected["n_outliers"]
        assert zlib.crc32(decompress_any(stream).tobytes()) == expected["crc32"]


class TestFrozenAdaptiveStream:
    @pytest.fixture()
    def stream(self) -> AdaptiveBlockStream:
        return _load_stream("v1_sz_adaptive.npz")

    def test_decodes_to_its_pinned_reconstruction(self, stream, v1_expected):
        expected = v1_expected["v1_sz_adaptive.npz"]
        assert stream.layout == 1 and stream.n_outliers == expected["n_outliers"]
        assert zlib.crc32(decompress_any(stream).tobytes()) == expected["crc32"]

    def test_truncated_codes_are_a_typed_error(self, stream):
        stream.payloads["codes"] = stream.payloads["codes"][:-2]
        with pytest.raises(PayloadError):
            decompress_any(stream)
