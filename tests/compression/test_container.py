"""The block container: round trips, the frozen containers, and the
typed refusal of every malformed or damaged file."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest
from npz_damage import DAMAGES, damaged_copy

from repro.compression.container import load_blocks, load_field, save_blocks
from repro.compression.sz import SZCompressor, decompress
from repro.util.errors import PayloadError

FIXTURES = Path(__file__).parent / "fixtures"


def _refused(path, match: str = "") -> PayloadError:
    """``load_blocks`` and ``load_field`` refuse ``path`` with one and
    the same ``PayloadError`` (matching ``match``); returns it."""
    errors = []
    for load in (load_blocks, load_field):
        with pytest.raises(PayloadError, match=match) as err:
            load(str(path))
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1])
    return errors[0]


class TestBlockContainer:
    def test_round_trip(self, snapshot, tmp_path):
        comp = SZCompressor()
        data = snapshot["temperature"]
        blocks = [comp.compress(data[:16], 10.0), comp.compress(data[16:], 20.0)]
        path = tmp_path / "blocks.npz"
        save_blocks(str(path), blocks, np.array([10.0, 20.0]), blocks_per_axis=2)
        loaded, ebs, bpa = load_blocks(str(path))
        assert bpa == 2
        assert np.array_equal(ebs, [10.0, 20.0])
        for orig, back in zip(blocks, loaded):
            assert back.shape == orig.shape
            assert back.eb == orig.eb
            assert np.array_equal(decompress(back), decompress(orig))

    @pytest.fixture()
    def mixed_blocks(self, snapshot):
        """64 partitions of 8^3 across the three codecs, one with outliers."""
        from repro.parallel.decomposition import BlockDecomposition

        data = snapshot["temperature"]
        views = BlockDecomposition(data.shape, blocks=4).partition_views(data)
        eb = float(data.std()) * 1e-2
        blocks = []
        for i, codec in enumerate(("zlib", "huffman", "raw")):
            comp = SZCompressor(codec=codec, radius=16 if codec == "huffman" else 1 << 15)
            blocks += comp.compress_many(views[i::3], [eb] * len(views[i::3]))
        assert any(b.n_outliers for b in blocks) and not all(b.n_outliers for b in blocks)
        return blocks

    def test_round_trip_is_lossless_and_pickle_free(self, mixed_blocks, tmp_path):
        path = tmp_path / "blocks.npz"
        ebs = np.array([b.eb for b in mixed_blocks])
        save_blocks(str(path), mixed_blocks, ebs, blocks_per_axis=4)
        loaded, back_ebs, bpa = load_blocks(str(path))
        assert bpa == 4 and np.array_equal(back_ebs, ebs)
        for orig, back in zip(mixed_blocks, loaded):
            assert back == orig  # every field, layout and payload bytes included
        with np.load(path, allow_pickle=False) as data:  # a plain npz, no pickle
            meta = json.loads(data["__meta"].tobytes())
            for key in data.files:
                assert data[key].dtype != object
        assert [row["layout"] for row in meta["blocks"]] == [2] * len(mixed_blocks)
        assert meta["blocks"][0]["payloads"] == ["codes", "outlier_pos", "outlier_val"]
        # canonical JSON: the same blocks always serialize to the same bytes
        again = tmp_path / "again.npz"
        save_blocks(str(again), mixed_blocks, ebs, blocks_per_axis=4)
        assert again.read_bytes() == path.read_bytes()

    def test_entropy_coded_members_are_stored_not_redeflated(self, mixed_blocks, tmp_path):
        import zipfile

        path = tmp_path / "blocks.npz"
        save_blocks(str(path), mixed_blocks, np.ones(len(mixed_blocks)), blocks_per_axis=4)
        with zipfile.ZipFile(path) as zf:
            methods = {info.filename[:-4]: info.compress_type for info in zf.infolist()}
        for i, block in enumerate(mixed_blocks):
            want = zipfile.ZIP_DEFLATED if block.codec_name == "raw" else zipfile.ZIP_STORED
            for name, blob in block.payloads.items():
                if blob:
                    assert methods[f"p{i}_{name}"] == want, (i, name)
                else:
                    assert f"p{i}_{name}" not in methods  # empty channels get no member
        for name in ("__meta", "__ebs", "__blocks_per_axis"):
            assert methods[name] == zipfile.ZIP_DEFLATED

    def test_container_adds_at_most_4_percent(self, snapshot, tmp_path):
        """32^3 partitions (the in situ size): zip + npy framing is the
        only thing the file holds beyond the payload bytes."""
        from repro.parallel.decomposition import BlockDecomposition

        rng = np.random.default_rng(5)
        data = np.cumsum(rng.normal(0, 1, (64, 64, 64)), axis=0).astype(np.float32)
        views = BlockDecomposition(data.shape, blocks=2).partition_views(data)
        blocks = SZCompressor().compress_many(views, [float(data.std()) * 1e-2] * 8)
        path = tmp_path / "blocks.npz"
        save_blocks(str(path), blocks, np.ones(8), blocks_per_axis=2)
        payload = sum(b.nbytes for b in blocks)
        assert path.stat().st_size <= payload * 1.04

    def test_the_pre_json_object_meta_is_refused(self):
        """The frozen v1 container carries the old object-dtype
        ``__meta``, which only pickle reads: a typed refusal that names
        the member and the form, and never advises ``allow_pickle``."""
        err = _refused(FIXTURES / "v1_container.npz", r"v1_container\.npz.*'__meta'.*JSON form")
        assert "allow_pickle" not in str(err)

    def test_layout_1_blocks_resave_in_the_json_form(self, v1_blocks, tmp_path):
        """Blocks built from the frozen v1 bytes save as a JSON container
        that keeps each block's layout tag."""
        blocks = [block for block, _ in v1_blocks.values()]
        out = tmp_path / "resaved.npz"
        save_blocks(str(out), blocks, np.array([b.eb for b in blocks]), 2)
        resaved, ebs, bpa = load_blocks(str(out))
        assert resaved == blocks and bpa == 2 and ebs.shape == (10,)
        assert {b.layout for b in resaved} == {1}

    def test_the_frozen_v2_container_round_trips_byte_for_byte(self, tmp_path):
        """``save_blocks`` of what ``load_blocks`` reads from the frozen
        layout-2 container writes that file again, byte for byte."""
        frozen = FIXTURES / "v2_default_strategy.npz"
        out = tmp_path / "again.npz"
        save_blocks(str(out), *load_blocks(str(frozen)))
        assert out.read_bytes() == frozen.read_bytes()

    def test_load_indexes_members_once(self, mixed_blocks, tmp_path, monkeypatch):
        """One open of the archive, one pass over its member list (not
        one scan per block) and one ``ZipFile.read`` per member."""
        import collections
        import zipfile

        from repro.compression import container
        from repro.util import npz

        path = tmp_path / "blocks.npz"
        save_blocks(str(path), mixed_blocks, np.ones(len(mixed_blocks)), blocks_per_axis=4)
        scans, opens, reads = [], [], collections.Counter()
        real_open, real_read = npz.open_npz, zipfile.ZipFile.read

        class CountingNames(list):
            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        @contextlib.contextmanager
        def counting_open(*args, **kwargs):
            opens.append(1)
            with real_open(*args, **kwargs) as archive:
                archive.names = CountingNames(archive.names)
                yield archive

        def counting_read(zf, name, *args):
            reads[name] += 1
            return real_read(zf, name, *args)

        monkeypatch.setattr(container, "open_npz", counting_open)
        monkeypatch.setattr(zipfile.ZipFile, "read", counting_read)
        load_blocks(str(path))
        assert len(scans) == 1 and len(opens) == 1
        with zipfile.ZipFile(path) as zf:
            assert reads == {name: 1 for name in zf.namelist()}


class TestMalformedContainer:
    """A hostile ``.npz`` fails ``load_blocks`` with a ``PayloadError``
    naming the file and the member, not a bare ``ValueError``,
    ``KeyError`` or ``JSONDecodeError``."""

    @pytest.fixture()
    def good(self, tmp_path):
        comp = SZCompressor()
        rng = np.random.default_rng(3)
        views = [rng.normal(0, 1, (6, 5, 4)) for _ in range(2)]
        blocks = comp.compress_many(views, [0.01] * 2)
        path = tmp_path / "good.npz"
        save_blocks(str(path), blocks, np.array([0.01, 0.01]), blocks_per_axis=1)
        return path

    @staticmethod
    def _rewrite(src, dst, drop=(), replace=None):
        """Copy the zip ``src`` to ``dst`` without the members in
        ``drop`` and with ``replace``'s ``{name: npy bytes}`` added."""
        import io
        import zipfile

        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for info in zin.infolist():
                if info.filename[:-4] not in drop:
                    zout.writestr(info, zin.read(info))
            for name, arr in (replace or {}).items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, arr, allow_pickle=False)
                zout.writestr(name + ".npy", buf.getvalue())
        return str(dst)

    @staticmethod
    def _meta(path) -> dict:
        with np.load(path, allow_pickle=False) as data:
            return json.loads(data["__meta"].tobytes())

    def _with_meta(self, good, tmp_path, meta) -> str:
        """``good`` with its ``__meta`` replaced by ``meta`` (a dict
        dumped as JSON, or raw bytes)."""
        raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
        member = np.frombuffer(raw, dtype=np.uint8)
        return self._rewrite(
            good, tmp_path / "bad.npz", drop=("__meta",), replace={"__meta": member}
        )

    def test_the_good_container_loads(self, good):
        blocks, ebs, bpa = load_blocks(str(good))
        assert len(blocks) == 2 and bpa == 1 and ebs.shape == (2,)

    @pytest.mark.parametrize(
        "member",
        ["pX_codes", "p7_codes", "p1_extra"],
        ids=["no-index", "no-such-block", "not-in-its-row"],
    )
    def test_a_payload_member_no_row_lists(self, good, tmp_path, member):
        path = self._rewrite(
            good, tmp_path / "bad.npz", replace={member: np.zeros(3, np.uint8)}
        )
        _refused(path, rf"bad\.npz.*'{member}'")

    @pytest.mark.parametrize("member", ["__meta", "__ebs", "__blocks_per_axis"])
    def test_a_missing_member(self, good, tmp_path, member):
        path = self._rewrite(good, tmp_path / "bad.npz", drop=(member,))
        _refused(path, rf"bad\.npz.*'{member}'")

    @pytest.mark.parametrize("field", ["source_itemsize", "shape", "eb", "codec"])
    def test_a_meta_row_without_a_field(self, good, tmp_path, field):
        meta = self._meta(good)
        del meta["blocks"][1][field]
        path = self._with_meta(good, tmp_path, meta)
        _refused(path, rf"bad\.npz.*'__meta' block 1.*'{field}'")

    def test_a_meta_row_with_a_bad_value(self, good, tmp_path):
        meta = self._meta(good)
        meta["blocks"][0]["radius"] = "wide"
        path = self._with_meta(good, tmp_path, meta)
        _refused(path, r"bad\.npz.*'__meta' block 0")

    @pytest.mark.parametrize(
        "raw",
        [None, b"[1, 2]", b'{"rows": []}', b'{"blocks": [1]}'],
        ids=["truncated", "a-list", "no-blocks", "rows-not-objects"],
    )
    def test_a_meta_that_is_not_a_block_table(self, good, tmp_path, raw):
        with np.load(good, allow_pickle=False) as data:
            whole = data["__meta"].tobytes()
        raw = whole[: len(whole) // 2] if raw is None else raw
        path = self._with_meta(good, tmp_path, raw)
        _refused(path, r"bad\.npz.*'__meta'")

    def test_errors_are_value_errors_that_never_advise_pickle(self, good, tmp_path):
        """``PayloadError`` is a ``ValueError``, and a broken JSON
        ``__meta`` is not taken for an object array that pickle reads."""
        path = self._with_meta(good, tmp_path, b"{")
        err = _refused(path)
        assert isinstance(err, ValueError)
        assert "allow_pickle" not in str(err)

    @pytest.mark.parametrize(
        "value",
        [np.array([1, 2]), np.array(1.5), np.array("two")],
        ids=["two-values", "float", "string"],
    )
    def test_a_blocks_per_axis_that_is_not_one_integer(self, good, tmp_path, value):
        path = self._rewrite(
            good,
            tmp_path / "bad.npz",
            drop=("__blocks_per_axis",),
            replace={"__blocks_per_axis": value},
        )
        _refused(path, r"bad\.npz.*'__blocks_per_axis'")

    @pytest.mark.parametrize(
        "names",
        [3, [1, 2], [["codes"]], "codes"],
        ids=["a-number", "numbers", "lists", "a-string"],
    )
    def test_a_meta_row_whose_payloads_are_not_names(self, good, tmp_path, names):
        meta = self._meta(good)
        meta["blocks"][1]["payloads"] = names
        path = self._with_meta(good, tmp_path, meta)
        _refused(path, r"bad\.npz.*'__meta' block 1.*'payloads'")

    @staticmethod
    def _corrupt(src, dst, member, keep):
        """Copy the zip ``src`` to ``dst`` with member ``member``'s
        ``.npy`` bytes cut to their first ``keep`` (a negative ``keep``
        drops that many from the end) and ``b"junk"`` appended."""
        import zipfile

        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for info in zin.infolist():
                raw = zin.read(info)
                if info.filename == member + ".npy":
                    raw = raw[:keep] + b"junk"
                zout.writestr(info, raw)
        return str(dst)

    @pytest.mark.parametrize(
        "member", ["p0_codes", "__ebs", "__blocks_per_axis", "__meta"]
    )
    @pytest.mark.parametrize("keep", [3, -20], ids=["bad-header", "truncated-data"])
    def test_a_corrupt_member(self, good, tmp_path, member, keep):
        path = self._corrupt(good, tmp_path / "bad.npz", member, keep)
        _refused(path, rf"bad\.npz.*'{member}'")

    def test_a_member_failing_its_crc(self, good, tmp_path):
        """One flipped byte in a stored payload member's data: the zip
        reader's CRC check fails, and that is a ``PayloadError`` too."""
        import struct
        import zipfile

        with zipfile.ZipFile(good) as zf:
            info = zf.getinfo("p0_codes.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        raw = bytearray(good.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        raw[start + info.file_size - 1] ^= 0xFF
        path = tmp_path / "bad.npz"
        path.write_bytes(bytes(raw))
        _refused(path, r"bad\.npz.*'p0_codes'.*CRC")

    def test_a_listed_payload_without_a_member_is_an_empty_channel(self, good, tmp_path):
        path = self._rewrite(good, tmp_path / "short.npz", drop=("p1_codes",))
        blocks, _, _ = load_blocks(path)
        assert blocks[1].payloads["codes"] == b""
        assert blocks[0].payloads["codes"] != b""

    @pytest.mark.parametrize("kind", sorted(DAMAGES))
    def test_a_damaged_file(self, good, tmp_path, kind):
        """Truncated, empty, not a zip or a bare ``.npy``: a ``PayloadError``
        naming the file, not ``BadZipFile``, ``EOFError`` or numpy's
        advice to unpickle."""
        path = damaged_copy(good, tmp_path / "bad.npz", kind)
        err = _refused(path, r"bad\.npz")
        assert "allow_pickle" not in str(err)

    @pytest.mark.parametrize(
        "ebs",
        [np.array([5.0]), np.ones(3), np.array(5.0)],
        ids=["one-entry", "three-entries", "a-scalar"],
    )
    def test_an_ebs_without_one_entry_per_block(self, good, tmp_path, ebs):
        path = self._rewrite(
            good, tmp_path / "bad.npz", drop=("__ebs",), replace={"__ebs": ebs}
        )
        _refused(path, r"bad\.npz.*'__ebs'")



class TestLoadField:
    """``load_field`` decodes a container into one float64 field: the
    bits of ``load_blocks`` -> ``decompress_any`` -> ``assemble``."""

    GRID = (16, 24, 8)

    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(21)
        return np.cumsum(rng.normal(0, 1, self.GRID), axis=0) + 60.0

    @pytest.mark.parametrize(
        "spec",
        ["sz", "sz:codec=huffman", "sz:codec=raw", "sz:mode=pw_rel", "sz:engine=classic"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_assembled_blocks(self, field, tmp_path, spec, dtype):
        from repro.compression.api import decompress_any, resolve_compressor
        from repro.parallel.decomposition import BlockDecomposition

        dec = BlockDecomposition(self.GRID, blocks=2)
        views = dec.partition_views(field.astype(dtype))
        eb = 0.01 if "pw_rel" in spec else 0.05
        blocks = resolve_compressor(spec).compress_many(views, [eb] * len(views))
        path = tmp_path / "c.npz"
        save_blocks(path, blocks, np.full(len(blocks), eb), 2)
        loaded, _, bpa = load_blocks(path)
        want = dec.assemble([decompress_any(b) for b in loaded], dtype=np.float64)
        got = load_field(path)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        out = np.full(self.GRID, np.nan)
        assert load_field(path, out=out) is out and out.tobytes() == want.tobytes()

    @pytest.fixture()
    def container(self, field, tmp_path):
        from repro.parallel.decomposition import BlockDecomposition

        views = BlockDecomposition(self.GRID, blocks=2).partition_views(field)
        blocks = SZCompressor().compress_many(views, [0.05] * len(views))
        return tmp_path, blocks

    @pytest.mark.parametrize(
        "blocks_per_axis, grid",
        [(1, None), (4, None), (2, (16, 24, 16)), (2, (16, 24))],
        ids=["too-few-partitions", "too-many-partitions", "another-grid", "a-2d-grid"],
    )
    def test_blocks_that_do_not_tile_are_refused_before_decoding(
        self, container, monkeypatch, blocks_per_axis, grid
    ):
        from repro.compression import container as module

        tmp_path, blocks = container
        path = tmp_path / "bad.npz"
        save_blocks(path, blocks, np.full(len(blocks), 0.05), blocks_per_axis)
        monkeypatch.setattr(module, "decompress_many", lambda *a, **k: pytest.fail("decoded"))
        with pytest.raises(PayloadError, match=r"bad\.npz.*'__blocks_per_axis'"):
            load_field(path, out=None if grid is None else np.empty(grid))

    def test_a_payload_that_does_not_decode(self, container):
        tmp_path, blocks = container
        blocks[3].payloads["codes"] = blocks[3].payloads["codes"][:-5]
        path = tmp_path / "bad.npz"
        save_blocks(path, blocks, np.full(len(blocks), 0.05), 2)
        with pytest.raises(PayloadError):
            load_field(path)

    def test_an_out_that_is_not_a_float64_buffer_is_the_callers_error(self, container):
        tmp_path, blocks = container
        path = save_blocks(tmp_path / "c", blocks, np.full(len(blocks), 0.05), 2)
        with pytest.raises(ValueError, match="float64") as err:
            load_field(path, out=np.empty(self.GRID, dtype=np.float32))
        assert not isinstance(err.value, PayloadError)
