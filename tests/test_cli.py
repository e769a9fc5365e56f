"""Command-line interface round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import load_blocks, main, save_blocks
from repro.compression.sz import SZCompressor, decompress
from repro.util.errors import PayloadError


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

    def test_legacy_object_meta_container_still_loads(self, tmp_path):
        """The frozen layout-1 container carries the old object-dtype
        ``__meta`` row: the one member, and the one path, that needs pickle."""
        from pathlib import Path

        fixture = Path(__file__).parent / "compression" / "fixtures" / "v1_container.npz"
        with np.load(fixture, allow_pickle=False) as data:
            with pytest.raises(ValueError, match="allow_pickle"):
                data["__meta"]
        blocks, ebs, bpa = load_blocks(str(fixture))
        assert len(blocks) == 10 and bpa == 2 and ebs.shape == (10,)
        assert {b.layout for b in blocks} == {1}
        assert list(blocks[0].payloads) == ["codes", "outlier_pos", "outlier_val"]
        # re-saving writes the new container form and keeps the layout tag
        out = tmp_path / "resaved.npz"
        save_blocks(str(out), blocks, ebs, bpa)
        resaved, _, _ = load_blocks(str(out))
        assert resaved == blocks

    def test_load_indexes_members_once(self, mixed_blocks, tmp_path, monkeypatch):
        """One pass over the member list, not one scan per block."""
        path = tmp_path / "blocks.npz"
        save_blocks(str(path), mixed_blocks, np.ones(len(mixed_blocks)), blocks_per_axis=4)
        scans = []
        real_load = np.load

        class CountingFiles(list):
            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        def counting_load(*args, **kwargs):
            data = real_load(*args, **kwargs)
            data.files = CountingFiles(data.files)
            return data

        monkeypatch.setattr(np, "load", counting_load)
        load_blocks(str(path))
        assert len(scans) == 1


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

    def test_a_payload_member_without_an_index(self, good, tmp_path):
        path = self._rewrite(
            good, tmp_path / "bad.npz", replace={"pX_codes": np.zeros(3, np.uint8)}
        )
        with pytest.raises(PayloadError, match=r"bad\.npz.*'pX_codes'"):
            load_blocks(path)

    @pytest.mark.parametrize("member", ["__meta", "__ebs", "__blocks_per_axis"])
    def test_a_missing_member(self, good, tmp_path, member):
        path = self._rewrite(good, tmp_path / "bad.npz", drop=(member,))
        with pytest.raises(PayloadError, match=rf"bad\.npz.*'{member}'"):
            load_blocks(path)

    @pytest.mark.parametrize("field", ["source_itemsize", "shape", "eb", "codec"])
    def test_a_meta_row_without_a_field(self, good, tmp_path, field):
        meta = self._meta(good)
        del meta["blocks"][1][field]
        path = self._with_meta(good, tmp_path, meta)
        with pytest.raises(PayloadError, match=rf"bad\.npz.*'__meta' block 1.*'{field}'"):
            load_blocks(path)

    def test_a_meta_row_with_a_bad_value(self, good, tmp_path):
        meta = self._meta(good)
        meta["blocks"][0]["radius"] = "wide"
        path = self._with_meta(good, tmp_path, meta)
        with pytest.raises(PayloadError, match=r"bad\.npz.*'__meta' block 0"):
            load_blocks(path)

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
        with pytest.raises(PayloadError, match=r"bad\.npz.*'__meta'"):
            load_blocks(path)

    def test_errors_are_value_errors_the_legacy_fallback_does_not_swallow(
        self, good, tmp_path
    ):
        """``PayloadError`` is a ``ValueError``: a broken JSON ``__meta``
        must not be read as a legacy object array."""
        path = self._with_meta(good, tmp_path, b"{")
        with pytest.raises(PayloadError) as err:
            load_blocks(path)
        assert isinstance(err.value, ValueError)
        assert "allow_pickle" not in str(err.value)

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
        with pytest.raises(PayloadError, match=r"bad\.npz.*'__blocks_per_axis'"):
            load_blocks(path)

    @pytest.mark.parametrize(
        "names",
        [3, [1, 2], [["codes"]], "codes"],
        ids=["a-number", "numbers", "lists", "a-string"],
    )
    def test_a_meta_row_whose_payloads_are_not_names(self, good, tmp_path, names):
        meta = self._meta(good)
        meta["blocks"][1]["payloads"] = names
        path = self._with_meta(good, tmp_path, meta)
        with pytest.raises(PayloadError, match=r"bad\.npz.*'__meta' block 1.*'payloads'"):
            load_blocks(path)

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
        with pytest.raises(PayloadError, match=rf"bad\.npz.*'{member}'"):
            load_blocks(path)

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
        with pytest.raises(PayloadError, match=r"bad\.npz.*'p0_codes'.*CRC"):
            load_blocks(str(path))

    def test_a_listed_payload_without_a_member_is_an_empty_channel(self, good, tmp_path):
        path = self._rewrite(good, tmp_path / "short.npz", drop=("p1_codes",))
        blocks, _, _ = load_blocks(path)
        assert blocks[1].payloads["codes"] == b""
        assert blocks[0].payloads["codes"] != b""


class TestCommands:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.npz"
        rc = main(["generate", "--shape", "16", "--redshift", "1.0", "--out", str(path)])
        assert rc == 0
        return path

    def test_generate(self, snap_path):
        from repro.sim.io import load_snapshot

        snap = load_snapshot(snap_path)
        assert snap.shape == (16, 16, 16)
        assert snap.redshift == 1.0

    def test_compress_and_analyze(self, snap_path, tmp_path, capsys):
        out = tmp_path / "blocks.npz"
        rc = main(
            [
                "compress",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        rc = main(
            [
                "analyze",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--compressed",
                str(out),
                "--tolerance",
                "0.5",
            ]
        )
        captured = capsys.readouterr().out
        assert "PSNR" in captured
        assert rc == 0

    @pytest.fixture()
    def compressed(self, snap_path, tmp_path):
        """A good container of the snapshot's temperature in 2^3 blocks."""
        out = tmp_path / "blocks.npz"
        args = ["--snapshot", str(snap_path), "--field", "temperature", "--blocks", "2"]
        assert main(["compress", *args, "--out", str(out)]) == 0
        return out

    @staticmethod
    def _analyze(snap_path, container) -> int:
        return main(
            [
                "analyze",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--compressed",
                str(container),
                "--tolerance",
                "0.5",
            ]
        )

    def test_analyze_prints_the_table_of_the_assembled_blocks(
        self, snap_path, compressed, capsys
    ):
        """Decoding into one field buffer prints the table that
        assembling each block's own decode gives."""
        from repro.analysis.metrics import nrmse, psnr
        from repro.analysis.spectrum import check_spectrum_quality
        from repro.compression.api import decompress_any
        from repro.parallel.decomposition import BlockDecomposition
        from repro.sim.io import load_snapshot
        from repro.util.tables import format_table

        capsys.readouterr()
        assert self._analyze(snap_path, compressed) == 0
        captured = capsys.readouterr()
        data = load_snapshot(snap_path)["temperature"].astype(np.float64)
        blocks, ebs, bpa = load_blocks(str(compressed))
        dec = BlockDecomposition(data.shape, blocks=bpa)
        recon = dec.assemble([decompress_any(b) for b in blocks])
        ok, dev = check_spectrum_quality(data, recon, tolerance=0.5)
        rows = [
            ["max abs error", float(np.max(np.abs(recon - data)))],
            ["largest bound", float(ebs.max())],
            ["PSNR (dB)", psnr(data, recon)],
            ["NRMSE", nrmse(data, recon)],
            ["P(k) worst deviation (k<10)", dev],
            ["P(k) within band", "yes" if ok else "NO"],
        ]
        table = format_table(["metric", "value"], rows, title="analysis: temperature")
        assert captured.out == table + "\n" and captured.err == ""

    @staticmethod
    def _bad_container(kind: str, good, path) -> str:
        blocks, ebs, bpa = load_blocks(str(good))
        if kind == "no-meta":
            import zipfile

            with zipfile.ZipFile(good) as zin, zipfile.ZipFile(path, "w") as zout:
                for info in zin.infolist():
                    if info.filename != "__meta.npy":
                        zout.writestr(info, zin.read(info))
            return str(path)
        if kind == "truncated-codes":
            blocks[3].payloads["codes"] = blocks[3].payloads["codes"][:-5]
        else:
            bpa = {"blocks-per-axis-3": 3, "one-partition": 1, "64-partitions": 4}[kind]
        save_blocks(str(path), blocks, ebs, blocks_per_axis=bpa)
        return str(path)

    @pytest.mark.parametrize(
        "kind",
        ["no-meta", "truncated-codes", "blocks-per-axis-3", "one-partition", "64-partitions"],
    )
    def test_analyze_refuses_a_bad_container_in_one_line(
        self, snap_path, compressed, tmp_path, capsys, kind
    ):
        """A malformed container, or blocks that do not tile the
        snapshot under the container's blocks per axis: one
        ``analyze: ...`` line on stderr and exit code 2, no traceback."""
        bad = self._bad_container(kind, compressed, tmp_path / "bad.npz")
        capsys.readouterr()
        assert self._analyze(snap_path, bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("analyze: ")

    def test_sweep(self, snap_path, capsys):
        rc = main(
            [
                "sweep",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--ebs",
                "50,500",
                "--tolerance",
                "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "temperature" in out

    def test_sweep_rate_only_model(self, snap_path, capsys):
        rc = main(
            [
                "sweep",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--ebs",
                "50,500",
                "--probe-mode",
                "model",
                "--rate-only",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        data_rows = [ln for ln in out.splitlines() if ln.startswith("temperature")]
        assert len(data_rows) == 2
        # Rate-only records carry no pass/fail verdict in the last column.
        assert all(row.split("|")[-1].strip() == "-" for row in data_rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--snapshot", "s.npz", "--field", "temperature", "--out", "o"],
            ["sweep", "--snapshot", "s.npz", "--field", "temperature"],
            ["stream", "--simulate"],
        ],
    )
    def test_estimate_is_no_longer_a_probe_mode(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--probe-mode", "estimate"])
        assert exc.value.code == 2
        assert "invalid choice: 'estimate'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--snapshot", "s.npz", "--field", "temperature", "--out", "o"],
            ["sweep", "--snapshot", "s.npz", "--field", "temperature", "--ebs", "1"],
            ["stream", "--simulate"],
        ],
    )
    def test_backend_is_no_longer_a_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend process" in capsys.readouterr().err

    def test_compress_model_probe_mode(self, snap_path, tmp_path, capsys):
        out = tmp_path / "blocks-model.npz"
        rc = main(
            [
                "compress",
                "--snapshot",
                str(snap_path),
                "--field",
                "temperature",
                "--blocks",
                "2",
                "--probe-mode",
                "model",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()

    def test_compress_reports_timings(self, snap_path, tmp_path, capsys):
        out = tmp_path / "blocks.npz"
        rc = main(
            [
                "compress",
                "--snapshot", str(snap_path),
                "--field", "temperature",
                "--blocks", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "timings: features=" in printed
        assert "compress=" in printed  # per-phase timings are reported

    def test_compress_outputs_identical(self, snap_path, tmp_path):
        """Two runs write the same container, byte for byte (the container
        has fixed timestamps)."""
        outs = []
        for i in range(2):
            out = tmp_path / f"b-{i}.npz"
            main(
                [
                    "compress",
                    "--snapshot", str(snap_path),
                    "--field", "temperature",
                    "--blocks", "2",
                    "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_list_compressors_prints_the_family_table(self, capsys):
        """The registry's one reader of ``describe``, ``defaults`` and
        ``capabilities``: three families, ``sz`` marked the default."""
        assert main(["list-compressors"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {
            cells[0]: cells[1:3]
            for cells in ([c.strip() for c in line.split("|")] for line in lines)
            if len(cells) == 4 and cells[0] != "family"
        }
        assert rows == {
            "sz *": [
                "error_bounded,supports_estimate",
                "codec=zlib,engine=dual,mode=abs,radius=32768",
            ],
            "sz_adaptive": ["error_bounded", "block=8,codec=zlib,radius=32768"],
            "zfp_like": ["fixed_rate", "rate=8.0"],
        }
        assert lines[0] == "registered compressor families (* = default)"
        assert lines[-1].startswith("spec grammar: family[:key=value,...]")


class TestStreamCommand:
    @pytest.fixture()
    def seq_dir(self, tmp_path):
        out = tmp_path / "seq"
        rc = main(
            [
                "generate",
                "--shape", "16",
                "--redshifts", "2.0,1.0,0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        return out

    def test_generate_redshift_schedule(self, seq_dir):
        from repro.sim.io import load_snapshot

        paths = sorted(seq_dir.glob("*.npz"))
        assert len(paths) == 3
        assert [load_snapshot(p).redshift for p in paths] == [2.0, 1.0, 0.5]

    def test_generate_refuses_stale_sequence_dir(self, seq_dir, capsys):
        """A shorter re-run must not leave a mixed-schedule directory."""
        rc = main(
            ["generate", "--shape", "16", "--redshifts", "2.0", "--out", str(seq_dir)]
        )
        assert rc == 1
        assert "refusing" in capsys.readouterr().err
        assert len(sorted(seq_dir.glob("*.npz"))) == 3  # untouched

    def test_stream_over_directory_with_ledger(self, seq_dir, tmp_path, capsys):
        ledger = tmp_path / "run.jsonl"
        rc = main(
            [
                "stream",
                "--dir", str(seq_dir),
                "--blocks", "2",
                "--fields", "temperature,velocity_x",
                "--ledger", str(ledger),
                "--budget-bytes", "500000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream: 3 snapshots" in out
        assert "budget" in out
        assert ledger.exists()

        rc = main(["stream", "--replay", str(ledger)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay verified: 6 decisions" in out

    def test_resumed_recalibrations_match_the_uninterrupted_run(
        self, seq_dir, tmp_path, capsys
    ):
        """``--seed`` seeds the simulator, not calibration: a resumed run
        samples the partitions the original run sampled (64 partitions
        here, more than one fit probes)."""
        from repro.stream import replay_ledger

        argv = [
            "stream",
            "--dir", str(seq_dir),
            "--blocks", "4",
            "--fields", "temperature",
            "--recalibrate", "always",
        ]
        full, cut = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
        assert main([*argv, "--ledger", str(full)]) == 0
        raw = full.read_bytes()
        cut.write_bytes(raw[: len(raw) // 3])
        assert main([*argv, "--ledger", str(cut), "--resume"]) == 0
        capsys.readouterr()

        def bounds(path):
            return [(d.snapshot_index, list(d.ebs)) for d in replay_ledger(path)]

        assert bounds(cut) == bounds(full)

    def test_stream_simulate(self, capsys):
        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0,1.0",
                "--blocks", "2",
                "--fields", "temperature",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recalibration" in out

    def test_stream_needs_a_source(self, capsys):
        rc = main(["stream"])
        assert rc == 2
        assert "need a source" in capsys.readouterr().err


class TestTelemetry:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.npz"
        rc = main(["generate", "--shape", "16", "--redshift", "1.0", "--out", str(path)])
        assert rc == 0
        return path

    def test_stream_writes_trace_and_report_renders(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "run.trace.json"
        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0,1.0",
                "--blocks", "2",
                "--fields", "temperature",
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry: wrote chrome trace" in out
        assert trace.exists()

        rc = main(["trace-report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Compression stages (sz.*)" in out
        assert "§4.3" in out
        assert "overhead_ratio" in out
        assert "temperature" in out

    def test_telemetry_disarmed_after_command(self, tmp_path, capsys):
        from repro import telemetry

        rc = main(
            [
                "stream",
                "--simulate",
                "--shape", "16",
                "--redshifts", "2.0",
                "--blocks", "2",
                "--fields", "temperature",
                "--telemetry", str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 0
        assert telemetry.enabled() is False

    def test_compress_telemetry_jsonl(self, snap_path, tmp_path, capsys):
        trace = tmp_path / "compress.jsonl"
        rc = main(
            [
                "compress",
                "--snapshot", str(snap_path),
                "--field", "temperature",
                "--blocks", "2",
                "--out", str(tmp_path / "blocks.npz"),
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        assert "telemetry: wrote jsonl trace" in capsys.readouterr().out
        from repro.telemetry.export import load_spans

        spans = load_spans(trace)
        assert any(s["name"].startswith("sz.") for s in spans)

    def test_trace_report_missing_file(self, tmp_path, capsys):
        rc = main(["trace-report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
