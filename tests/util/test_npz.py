"""The ``.npz`` archive layer: the writer's bytes are numpy's, the header
fast path reads what numpy's parser reads, and every damaged member is a
typed error naming the file and the member."""

from __future__ import annotations

import dataclasses
import io
import json
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.container import load_blocks, save_blocks
from repro.compression.sz import SZCompressor
from repro.util import npz
from repro.util.errors import PayloadError

FIXTURES = Path(__file__).parents[1] / "compression" / "fixtures"
HEADER = len(npz.u1_header(0))  # 128: numpy pads the header to whole 64-byte lines

#: One block of every configuration the container stores (``sz`` blocks;
#: ``sz_adaptive`` streams are not container blocks): the three codecs
#: (raw's members are deflated), pw_rel and the classic engine, each from
#: f32 and f64.
SPECS = ("sz", "sz:codec=huffman", "sz:codec=raw", "sz:mode=pw_rel", "sz:engine=classic")


def _npy(arr: np.ndarray, **kwargs) -> bytes:
    fh = io.BytesIO()
    np.lib.format.write_array(fh, arr, allow_pickle=kwargs.pop("allow_pickle", False), **kwargs)
    return fh.getvalue()


def _numpy_written(path, blocks, ebs, blocks_per_axis) -> None:
    """The container as writing every member through
    ``np.lib.format.write_array`` writes it: the writer's oracle."""
    rows = [
        {
            "shape": b.shape, "source_itemsize": b.source_itemsize, "eb": b.eb,
            "mode": b.mode, "engine": b.engine, "codec": b.codec_name,
            "radius": b.radius, "n_outliers": b.n_outliers, "layout": b.layout,
            "payloads": list(b.payloads),
        }
        for b in blocks
    ]
    meta = json.dumps({"blocks": rows}, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:

        def write(name, arr, method):
            info = zipfile.ZipInfo(name + ".npy")
            info.compress_type = method
            zf.writestr(info, _npy(arr))

        write("__ebs", np.asarray(ebs, dtype=np.float64), zipfile.ZIP_DEFLATED)
        write("__blocks_per_axis", np.array(blocks_per_axis), zipfile.ZIP_DEFLATED)
        write("__meta", np.frombuffer(meta.encode(), dtype=np.uint8), zipfile.ZIP_DEFLATED)
        for i, b in enumerate(blocks):
            method = zipfile.ZIP_DEFLATED if b.codec_name == "raw" else zipfile.ZIP_STORED
            for name, blob in b.payloads.items():
                if blob:
                    write(f"p{i}_{name}", np.frombuffer(blob, dtype=np.uint8), method)


@pytest.fixture(scope="module")
def blocks_by_spec():
    from repro.compression.api import resolve_compressor

    rng = np.random.default_rng(11)
    out = {}
    for spec in SPECS:
        for dtype in (np.float32, np.float64):
            data = (np.cumsum(rng.normal(0, 1, (8, 8, 8)), axis=0) + 40).astype(dtype)
            out[spec, dtype] = resolve_compressor(spec).compress(data, 0.05)
    return out


class TestWriter:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 10**7))
    def test_the_header_is_numpys_own(self, n):
        """``u1_header(n)`` is what ``write_array`` writes before the
        data of a 1-D uint8 array of ``n`` elements."""

        class HeaderOnly:
            head = None

            def write(self, chunk):
                if self.head is not None:
                    raise EOFError  # the data: the header is all we want
                self.head = bytes(chunk)

        fh = HeaderOnly()
        try:
            np.lib.format.write_array(fh, np.broadcast_to(np.uint8(7), (n,)), allow_pickle=False)
        except EOFError:
            pass
        assert npz.u1_header(n) == fh.head

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 10**6), min_size=1, max_size=3),
        which=st.integers(0, len(SPECS) * 2 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_blocks_writes_numpys_bytes(self, blocks_by_spec, tmp_path_factory, lengths, which, seed):
        """Payloads of any length, every codec: ``save_blocks`` writes the
        bytes the ``write_array`` path writes."""
        rng = np.random.default_rng(seed)
        base = list(blocks_by_spec.values())[which]
        blocks = []
        for n in lengths:
            payloads = {name: rng.bytes(n) if i == 0 else blob for i, (name, blob) in enumerate(base.payloads.items())}
            blocks.append(dataclasses.replace(base, payloads=payloads))
        ebs = np.full(len(blocks), base.eb)
        tmp = tmp_path_factory.mktemp("writer")
        assert save_blocks(tmp / "fast", blocks, ebs, 1) == str(tmp / "fast.npz")
        _numpy_written(tmp / "numpy.npz", blocks, ebs, 1)
        assert (tmp / "fast.npz").read_bytes() == (tmp / "numpy.npz").read_bytes()

    def test_every_configuration_resaves_as_numpy_wrote_it(self, blocks_by_spec, tmp_path):
        blocks = list(blocks_by_spec.values())
        ebs = np.array([b.eb for b in blocks])
        save_blocks(tmp_path / "fast.npz", blocks, ebs, 2)
        _numpy_written(tmp_path / "numpy.npz", blocks, ebs, 2)
        assert (tmp_path / "fast.npz").read_bytes() == (tmp_path / "numpy.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "fast.npz") as zf:
            deflated = {i.filename for i in zf.infolist() if i.compress_type == zipfile.ZIP_DEFLATED}
        assert any(name.startswith("p") for name in deflated)  # raw's members


def _members(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as zf:
        return {info.filename[:-4]: zf.read(info) for info in zf.infolist()}


def _header_in_16_byte_lines(n: int) -> bytes:
    """A valid 1.0 header for a 1-D uint8 array of ``n`` padded to a
    multiple of 16 bytes, not numpy's 64: the same array, other bytes."""
    text = f"{{'descr': '|u1', 'fortran_order': False, 'shape': ({n},), }}".encode()
    text += b" " * (-(10 + len(text) + 1) % 16) + b"\n"
    return np.lib.format.magic(1, 0) + struct.pack("<H", len(text)) + text


def _parsed_by_numpy(raw: bytes) -> np.ndarray:
    return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)


class TestReader:
    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.npz")))
    def test_every_frozen_member_reads_as_numpy_parses_it(self, fixture, monkeypatch):
        """The fast path and numpy's parser agree on every member of every
        frozen fixture, and forcing every member through the parser
        changes nothing; object members are refused either way."""
        path = FIXTURES / fixture
        parsed = np.lib.format.read_array
        calls = []
        monkeypatch.setattr(
            npz._npy_format, "read_array", lambda *a, **k: calls.append(1) or parsed(*a, **k)
        )
        fast, slow = {}, {}
        with npz.open_npz(path) as archive:
            for name in archive.names:
                try:
                    fast[name] = archive.array(name)
                except PayloadError as exc:
                    assert "object array" in str(exc) and name in str(exc)
        canonical = len(fast) - len(calls)
        monkeypatch.setattr(npz, "u1_header", lambda n: b"\x00")  # no header is canonical
        calls.clear()
        with npz.open_npz(path) as archive:
            for name in fast:
                slow[name] = archive.array(name)
        assert len(calls) == len(fast) and canonical > 0
        for name, raw in _members(path).items():
            if name not in fast:
                with pytest.raises(ValueError, match="allow_pickle"):
                    _parsed_by_numpy(raw)
                continue
            want = _parsed_by_numpy(raw)
            for got in (fast[name], slow[name]):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_the_frozen_container_loads_the_same_through_numpys_parser(self, monkeypatch):
        path = str(FIXTURES / "v2_default_strategy.npz")
        fast = load_blocks(path)
        monkeypatch.setattr(npz, "u1_header", lambda n: b"\x00")
        slow = load_blocks(path)
        assert fast[0] == slow[0] and fast[2] == slow[2]
        assert np.array_equal(fast[1], slow[1])

    @pytest.fixture()
    def good(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = SZCompressor().compress_many([rng.normal(0, 1, (6, 5, 4)) for _ in range(2)], [0.01] * 2)
        path = tmp_path / "good.npz"
        save_blocks(str(path), blocks, np.array([0.01, 0.01]), blocks_per_axis=1)
        return path

    @staticmethod
    def _with_member(src, dst, name: str, raw: bytes) -> str:
        """``src`` with member ``name``'s stored bytes replaced by ``raw``."""
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for info in zin.infolist():
                zout.writestr(info, raw if info.filename == name + ".npy" else zin.read(info))
        return str(dst)

    @pytest.mark.parametrize(
        "header",
        [
            lambda data: _npy(data, version=(2, 0)),
            lambda data: _header_in_16_byte_lines(data.size) + data.tobytes(),
            lambda data: _npy(data.reshape(1, -1)),  # another shape of the same bytes
        ],
        ids=["v2.0", "16-byte-padding", "2-d"],
    )
    def test_a_header_numpy_did_not_write_here_reads_through_its_parser(self, good, tmp_path, header):
        codes = _members(good)["p0_codes"]
        data = np.frombuffer(codes[HEADER:], dtype=np.uint8)
        raw = header(data)
        assert not raw.startswith(npz.u1_header(data.size))
        path = self._with_member(good, tmp_path / "other.npz", "p0_codes", raw)
        assert load_blocks(path)[0] == load_blocks(str(good))[0]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: npz.u1_header(len(raw) - HEADER + 5) + raw[HEADER:],  # canonical header, data short
            lambda raw: _npy(np.array([b"x", 1], dtype=object), allow_pickle=True),
            lambda raw: np.lib.format.magic(1, 0) + struct.pack("<H", len(raw)) + raw[10:],
            lambda raw: raw[:9],
            lambda raw: b"",
        ],
        ids=["canonical-header-truncated-data", "object-dtype", "header-past-the-end", "cut-in-the-magic", "empty"],
    )
    def test_a_damaged_member_names_the_file_and_the_member(self, good, tmp_path, damage):
        raw = damage(_members(good)["p0_codes"])
        path = self._with_member(good, tmp_path / "bad.npz", "p0_codes", raw)
        with pytest.raises(PayloadError, match=r"bad\.npz: member 'p0_codes' ") as err:
            load_blocks(path)
        assert "allow_pickle" not in str(err.value)
        with npz.open_npz(path) as archive, pytest.raises(PayloadError, match=r"bad\.npz: member 'p0_codes' "):
            archive.array("p0_codes")

    def test_a_flipped_stored_byte_fails_the_crc(self, good, tmp_path):
        with zipfile.ZipFile(good) as zf:
            info = zf.getinfo("p0_codes.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        raw = bytearray(good.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        raw[info.header_offset + 30 + name_len + extra_len + 200 % info.file_size] ^= 0x01
        path = tmp_path / "bad.npz"
        path.write_bytes(bytes(raw))
        with npz.open_npz(path) as archive, pytest.raises(PayloadError, match=r"bad\.npz: member 'p0_codes' .*CRC"):
            archive.array("p0_codes")


class TestNames:
    def test_a_name_given_to_a_writer_reads_back(self, good_blocks, tmp_path):
        blocks, ebs = good_blocks
        for given in ("c", "c.bin", "dir.d/c"):
            (tmp_path / "dir.d").mkdir(exist_ok=True)
            written = save_blocks(tmp_path / given, blocks, ebs, 1)
            assert written == str(tmp_path / given) + ".npz"
            assert load_blocks(tmp_path / given)[0] == blocks
        assert npz.archive_path("a.npz") == "a.npz"

    def test_an_existing_file_is_opened_as_named(self, good_blocks, tmp_path):
        blocks, ebs = good_blocks
        save_blocks(tmp_path / "c", blocks, ebs, 1)
        (tmp_path / "c").write_bytes(b"")  # the name as given wins, damaged or not
        with pytest.raises(PayloadError, match=r"c: empty file"):
            load_blocks(tmp_path / "c")

    def test_a_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="gone"):
            load_blocks(tmp_path / "gone")

    @pytest.fixture()
    def good_blocks(self):
        rng = np.random.default_rng(4)
        blocks = SZCompressor().compress_many([rng.normal(0, 1, (4, 4, 4))], [0.01])
        return blocks, np.array([0.01])
