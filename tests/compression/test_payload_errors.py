"""The read-path contract: bytes that fail validation raise one typed
error, :class:`repro.util.errors.PayloadError` — never a bare
``zlib.error``/``IndexError`` and never a silently short or long array.

Every codec x {layout 2 (fresh), layout 1 (frozen fixture)} payload is
truncated, extended and bit-flipped; so are the outlier channels.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile

import numpy as np
import pytest

from repro.compression.api import decompress_any
from repro.compression.codecs import get_codec
from repro.compression.container import load_blocks, save_blocks
from repro.compression.regression import AdaptiveSZCompressor
from repro.compression.sz import SZCompressor, decompress
from repro.resilience import CorruptedPayloadError
from repro.util.errors import PayloadError

CODECS = ["raw", "zlib", "huffman"]
#: note of a frozen layout-1 block per codec (tests/compression/fixtures)
V1_NOTES = {"raw": "raw f32", "zlib": "zlib f32", "huffman": "huffman f64"}


def _flip(blob: bytes, index: int, bit: int = 0) -> bytes:
    out = bytearray(blob)
    out[index] ^= 1 << bit
    return bytes(out)


def _fresh_block(codec: str, radius: int = 1 << 15):
    rng = np.random.default_rng(31)
    data = np.cumsum(rng.normal(0, 30, (8, 8, 8)), axis=1)
    return SZCompressor(codec=codec, radius=radius).compress(data, 0.05)


@pytest.fixture(params=[2, 1], ids=["layout2", "layout1"])
def layout(request):
    return request.param


def _block(codec: str, layout: int, v1_blocks):
    if layout == 1:
        return v1_blocks[V1_NOTES[codec]][0]
    return _fresh_block(codec)


def test_injected_corruption_is_the_same_error_family():
    assert issubclass(CorruptedPayloadError, PayloadError)
    assert issubclass(PayloadError, ValueError)


@pytest.mark.parametrize("codec", CODECS)
class TestCodePayload:
    def test_truncation(self, codec, layout, v1_blocks):
        block = _block(codec, layout, v1_blocks)
        intact = block.payloads["codes"]
        for cut in (1, 5, len(intact) - 1, len(intact)):
            block.payloads["codes"] = intact[:-cut]
            with pytest.raises(PayloadError):
                decompress(block)

    def test_extension(self, codec, layout, v1_blocks):
        block = _block(codec, layout, v1_blocks)
        for extra in (b"\x00", b"\x78\x9c", bytes(17)):
            grown = block.payloads["codes"] + extra
            block.payloads["codes"] = grown
            with pytest.raises(PayloadError):
                decompress(block)
            block.payloads["codes"] = grown[: -len(extra)]
        decompress(block)  # intact again

    def test_bit_flips_in_the_leading_bytes(self, codec, layout, v1_blocks):
        """Tag byte (raw/zlib) or the alphabet/bit-count/section-length
        header (huffman): every single-bit flip is refused."""
        block = _block(codec, layout, v1_blocks)
        intact = block.payloads["codes"]
        header = 1 if codec != "huffman" else 16
        for index in range(header):
            for bit in range(8):
                block.payloads["codes"] = _flip(intact, index, bit)
                try:
                    recon = decompress(block)
                except PayloadError:
                    continue
                # A flipped huffman alphabet-size bit can only pass if the
                # table it names is the table that was stored.
                pytest.fail(f"flip of byte {index} bit {bit} decoded {recon.shape}")

    def test_wrong_element_count(self, codec):
        symbols = np.arange(300) % 7
        blob = get_codec(codec).encode(symbols)
        assert np.array_equal(get_codec(codec).decode(blob, 300), symbols)
        for n in (299, 301, 0, 600):
            with pytest.raises(PayloadError):
                get_codec(codec).decode(blob, n)


@pytest.mark.parametrize("codec", ["zlib", "huffman"])  # raw bytes carry no checksum
def test_bit_flips_in_deflated_sections(codec, layout, v1_blocks):
    block = _block(codec, layout, v1_blocks)
    intact = block.payloads["codes"]
    for index in range(20, len(intact), max(1, len(intact) // 23)):
        block.payloads["codes"] = _flip(intact, index, index % 8)
        with pytest.raises(PayloadError):
            decompress(block)


@pytest.mark.parametrize("channel", ["outlier_pos", "outlier_val"])
class TestOutlierChannels:
    def _outlier_block(self, layout, v1_blocks):
        if layout == 1:
            return v1_blocks["zlib radius=16 (outliers)"][0]
        block = _fresh_block("zlib", radius=16)
        assert block.n_outliers > 0
        return block

    def test_truncation_extension_and_flip(self, channel, layout, v1_blocks):
        block = self._outlier_block(layout, v1_blocks)
        intact = block.payloads[channel]
        mutations = [intact[:-1], intact[:3], b"", intact + b"\x00", _flip(intact, 0, 3),
                     _flip(intact, len(intact) // 2, 1)]
        for blob in mutations:
            block.payloads[channel] = blob
            with pytest.raises(PayloadError):
                decompress(block)

    def test_count_mismatch(self, channel, layout, v1_blocks):
        block = self._outlier_block(layout, v1_blocks)
        block.n_outliers -= 1
        with pytest.raises(PayloadError):
            decompress(block)

    def test_missing_channel(self, channel, layout, v1_blocks):
        block = self._outlier_block(layout, v1_blocks)
        del block.payloads[channel]
        with pytest.raises(PayloadError, match=channel):
            decompress(block)


class TestUnknownHeaderTags:
    """``engine`` and ``mode`` arrive as strings from a container's
    ``__meta``; one the decoder does not know is refused, not guessed."""

    def test_unknown_engine_tag(self):
        block = _fresh_block("zlib", radius=16)
        assert block.n_outliers > 0  # decoded as the other engine: error >> eb
        with pytest.raises(PayloadError, match="engine tag 'gpu'"):
            decompress(dataclasses.replace(block, engine="gpu"))

    def test_unknown_mode_tag(self, layout, v1_blocks):
        block = _block("zlib", layout, v1_blocks)
        for engine in ("dual", "classic"):
            bad = dataclasses.replace(block, mode="rel", engine=engine)
            with pytest.raises(PayloadError, match="mode tag 'rel'"):
                decompress(bad)

    @pytest.mark.parametrize("key, tag", [("engine", "gpu"), ("mode", "rel")])
    def test_tag_edited_in_a_container(self, tmp_path, key, tag):
        path = str(tmp_path / "blocks.npz")
        block = _fresh_block("zlib", radius=16)
        save_blocks(path, [block], np.array([block.eb]), 1)
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        meta = json.loads(np.load(io.BytesIO(members["__meta.npy"])).tobytes())
        assert meta["blocks"][0][key] == getattr(block, key)
        meta["blocks"][0][key] = tag
        buf = io.BytesIO()
        np.save(buf, np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        members["__meta.npy"] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)
        (loaded,), _, _ = load_blocks(path)
        assert getattr(loaded, key) == tag and loaded.payloads == block.payloads
        with pytest.raises(PayloadError, match=f"{key} tag {tag!r}"):
            decompress_any(loaded)


def test_outlier_position_outside_the_block():
    block = _fresh_block("zlib", radius=16)
    small = SZCompressor(radius=16).compress(
        np.cumsum(np.random.default_rng(31).normal(0, 30, (8, 8, 4)), axis=1), 0.05
    )
    # same outlier count is not required: make the counts agree by hand
    small.payloads["outlier_pos"] = block.payloads["outlier_pos"]
    small.payloads["outlier_val"] = block.payloads["outlier_val"]
    small.n_outliers = block.n_outliers
    with pytest.raises(PayloadError, match="outside"):
        decompress(small)


def test_adaptive_stream_channels_are_validated():
    rng = np.random.default_rng(32)
    data = np.cumsum(rng.normal(0, 1, (8, 8, 8)), axis=0).astype(np.float32)
    stream = AdaptiveSZCompressor(block=4).compress(data, 0.01)
    assert stream.layout == 2
    assert np.max(np.abs(decompress_any(stream) - data)) <= 0.01 * (1 + 1e-6)
    for name in stream.payloads:
        intact = stream.payloads[name]
        for blob in (intact[:-1], intact + b"\x00"):
            stream.payloads[name] = blob
            with pytest.raises(PayloadError):
                decompress_any(stream)
        stream.payloads[name] = intact
