"""Command-line interface round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from npz_damage import DAMAGES, damaged_copy

from repro import telemetry
from repro.cli import load_blocks, main, save_blocks
from repro.telemetry.export import load_spans
from repro.telemetry.report import overhead_summary


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
        if kind in DAMAGES:
            return damaged_copy(good, path, kind)
        blocks, ebs, bpa = load_blocks(str(good))
        if kind in ("no-meta", "stray-member"):
            import zipfile

            with zipfile.ZipFile(good) as zin, zipfile.ZipFile(path, "w") as zout:
                for info in zin.infolist():
                    if not (kind == "no-meta" and info.filename == "__meta.npy"):
                        zout.writestr(info, zin.read(info))
                if kind == "stray-member":  # a payload of a block no row lists
                    zout.writestr("p9_codes.npy", zin.read("p0_codes.npy"))
            return str(path)
        if kind == "truncated-codes":
            blocks[3].payloads["codes"] = blocks[3].payloads["codes"][:-5]
        elif kind == "short-ebs":
            ebs = ebs[:1]
        else:
            bpa = {"blocks-per-axis-3": 3, "one-partition": 1, "64-partitions": 4}[kind]
        save_blocks(str(path), blocks, ebs, blocks_per_axis=bpa)
        return str(path)

    @pytest.mark.parametrize(
        "kind",
        [
            "no-meta", "truncated-codes", "blocks-per-axis-3", "one-partition",
            "64-partitions", "short-ebs", "stray-member", *sorted(DAMAGES),
        ],
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

    @pytest.mark.parametrize(
        "command, args",
        [
            ("compress", ["--out", "blocks.npz"]),
            ("analyze", ["--compressed", "blocks.npz"]),
            ("sweep", ["--ebs", "50"]),
        ],
    )
    def test_a_damaged_snapshot_is_one_line(self, snap_path, tmp_path, capsys, command, args):
        bad = damaged_copy(snap_path, tmp_path / "bad.npz", "truncated")
        capsys.readouterr()
        argv = [command, "--snapshot", bad, "--field", "temperature", *args]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{command}: ") and "bad.npz" in lines[0]

    def test_a_name_given_to_a_writer_reads_back(self, tmp_path, capsys):
        """``--out`` without ``.npz``: the writers add it, each command
        prints the file it wrote, and the readers open the name as given."""
        snap, blocks = tmp_path / "snap", tmp_path / "c"
        assert main(["generate", "--shape", "16", "--out", str(snap)]) == 0
        args = ["--snapshot", str(snap), "--field", "temperature"]
        assert main(["compress", *args, "--blocks", "2", "--out", str(blocks)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {snap}.npz:" in out and f"wrote {blocks}.npz:" in out
        assert (tmp_path / "snap.npz").exists() and (tmp_path / "c.npz").exists()
        assert not snap.exists() and not blocks.exists()
        assert main(["analyze", *args, "--compressed", str(blocks), "--tolerance", "0.5"]) == 0
        assert "PSNR" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, args",
        [
            ("compress", ["--out", "blocks.npz"]),
            ("analyze", ["--compressed", "{snap}"]),
            ("sweep", ["--ebs", "50"]),
        ],
    )
    def test_a_missing_snapshot_is_one_line(self, snap_path, tmp_path, capsys, command, args):
        missing = str(tmp_path / "nowhere.npz")
        capsys.readouterr()
        argv = [command, "--snapshot", missing, "--field", "temperature"]
        assert main(argv + [a.format(snap=snap_path) for a in args]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{command}: ") and "nowhere.npz" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["gone", "gone.npz"])
    def test_a_missing_container_is_one_line(self, snap_path, tmp_path, capsys, name):
        capsys.readouterr()
        assert self._analyze(snap_path, tmp_path / name) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("analyze: ") and name in lines[0]
        assert captured.out == ""

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

    @staticmethod
    def _printed_timings(printed: str) -> dict[str, str]:
        (line,) = [ln for ln in printed.splitlines() if ln.startswith("timings: ")]
        return dict(
            item.removesuffix("s").split("=")
            for item in line.removeprefix("timings: ").split()
        )

    def test_compress_timings_are_the_trace_totals(self, snap_path, tmp_path, capsys):
        """The printed phases are the rank loop's spans in the
        ``--telemetry`` trace, which keeps them."""
        trace = tmp_path / "t.jsonl"
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
        printed = self._printed_timings(capsys.readouterr().out)
        spans = load_spans(trace)
        assert {"backend.snapshot", "features", "optimize", "compress"} <= {
            s["name"] for s in spans
        }
        totals = overhead_summary(spans)
        assert printed == {
            p: f"{totals[p]:.3f}" for p in ("features", "optimize", "compress")
        }

    def test_compress_arms_a_tracer_only_for_its_run(self, snap_path, tmp_path, capsys):
        """Without ``--telemetry`` the command arms a tracer for the run
        and disarms it after; under an armed caller it uses the caller's."""
        args = [
            "compress",
            "--snapshot", str(snap_path),
            "--field", "temperature",
            "--blocks", "2",
            "--out", str(tmp_path / "blocks.npz"),
        ]
        assert main(args) == 0
        assert not telemetry.enabled()
        assert list(self._printed_timings(capsys.readouterr().out)) == [
            "features", "optimize", "compress"
        ]
        with telemetry.armed() as outer:
            assert main(args) == 0
            assert telemetry.get_tracer() is outer
        printed = self._printed_timings(capsys.readouterr().out)
        totals = overhead_summary(outer.export_spans())
        assert printed == {p: f"{totals[p]:.3f}" for p in printed}

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

    @pytest.mark.parametrize("index", [0, 2], ids=["first-dump", "last-dump"])
    def test_stream_refuses_a_damaged_dump_in_one_line(self, seq_dir, capsys, index):
        """The first dump is read for the grid shape, the others as the
        stream reaches them: a truncated one is one ``stream: ...`` line
        naming it and exit code 2, no traceback."""
        dump = sorted(seq_dir.glob("*.npz"))[index]
        damaged_copy(dump, dump, "truncated")
        capsys.readouterr()
        assert main(["stream", "--dir", str(seq_dir), "--blocks", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("stream: ")
        assert dump.name in lines[0]

    def test_a_dump_that_stays_damaged_is_retried_then_one_line(
        self, seq_dir, capsys, monkeypatch
    ):
        """Under ``--max-retries`` a cut dump is retried (it may still be
        being copied); when every attempt finds it cut, the run ends in
        one ``stream: ...`` line naming the file and the attempts."""
        from repro.resilience import retry as retry_module

        waits: list[float] = []
        monkeypatch.setattr(retry_module.time, "sleep", waits.append)
        dump = sorted(seq_dir.glob("*.npz"))[1]
        damaged_copy(dump, dump, "truncated")
        capsys.readouterr()
        argv = ["stream", "--dir", str(seq_dir), "--blocks", "2", "--max-retries", "3"]
        assert main(argv) == 2
        assert len(waits) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("stream: ")
        assert dump.name in lines[0] and "3 attempt(s)" in lines[0]

    @pytest.mark.parametrize(
        "flags, needs",
        [
            (["--compressor", "zfp_like:rate=8"], "'error_bounded'"),
            (
                ["--compressor", "zfp_like:rate=8", "--compressor", "zfp_like:rate=16"],
                "'error_bounded'",
            ),
            (
                ["--compressor", "sz_adaptive", "--probe-mode", "model"],
                "'supports_estimate'",
            ),
        ],
        ids=["compressor", "slate", "model-probe"],
    )
    def test_a_fixed_rate_stream_is_one_line(
        self, tmp_path, capsys, monkeypatch, flags, needs
    ):
        """A run that could never compress (a fixed-rate compressor, or
        one the probe mode cannot serve) is refused before a snapshot is
        synthesized or a ledger line written: one line, exit 2."""
        from repro.sim.nyx import NyxSimulator

        def refuse(*_, **__):
            raise AssertionError("a snapshot was synthesized")

        monkeypatch.setattr(NyxSimulator, "snapshot", refuse)
        ledger = tmp_path / "x.jsonl"
        argv = ["stream", "--simulate", "--shape", "16", "--redshifts", "2,1"]
        argv += ["--blocks", "2", "--ledger", str(ledger)] + flags
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("stream: ")
        assert needs in lines[0]
        assert not ledger.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget-bytes", "0"], "byte_budget must be positive"),
            (["--resume", "--ledger", "EMPTY"], "no run_start event"),
        ],
        ids=["zero-budget", "resume-empty-ledger"],
    )
    def test_a_refused_controller_is_one_line(self, tmp_path, capsys, flags, message):
        """Settings the controller refuses at construction or resume end
        in one ``stream: ...`` line and exit 2, not a traceback."""
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        argv = ["stream", "--simulate", "--shape", "16", "--redshifts", "2,1"]
        argv += ["--blocks", "2"] + [str(empty) if f == "EMPTY" else f for f in flags]
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("stream: ")
        assert message in lines[0]

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
