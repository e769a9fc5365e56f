"""CLI contract: stable exit codes, canonical JSON, `repro lint` wiring."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

BAD = "import json\ns = json.dumps({'a': 1})\n"
CLEAN = "import json\ns = json.dumps({'a': 1}, sort_keys=True)\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "bad.py").write_text(BAD)
    (tmp_path / "ok.py").write_text(CLEAN)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "ok:" in capsys.readouterr().out

    def test_findings_exit_1(self, tree, capsys):
        assert main([str(tree)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL004" in out and "bad.py" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path), "--select", "RL999"]) == EXIT_USAGE

    def test_baseline_flag_is_refused(self, tree, capsys):
        """Inline ``# repro-lint: disable=RULE`` is the one way to accept
        a finding: there is no baseline file to carry it elsewhere."""
        with pytest.raises(SystemExit) as exc:
            main([str(tree), "--baseline", "baseline.json"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    def test_write_baseline_flag_is_refused(self, tree, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(tree), "--write-baseline"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --write-baseline" in capsys.readouterr().err
        assert not list(tree.glob("*.json"))


class TestJsonFormat:
    def test_report_is_canonical_and_parses(self, tree, capsys):
        assert main([str(tree), "--format", "json"]) == EXIT_FINDINGS
        raw = capsys.readouterr().out.strip()
        payload = json.loads(raw)
        # Canonical bytes: sorted keys, compact separators.
        assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert payload["ok"] is False
        assert payload["version"] == 2
        # Version 2: the baseline keys are gone.
        assert sorted(payload) == [
            "files_checked", "findings", "ok", "suppressed", "version"
        ]
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL004"
        assert finding["path"].endswith("bad.py")

    def test_output_file(self, tree, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([str(tree), "--format", "json", "--output", str(report)])
        assert code == EXIT_FINDINGS
        assert json.loads(report.read_text())["ok"] is False
        assert "report written to" in capsys.readouterr().out


class TestDiscovery:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RL001", "RL004", "RL009"):
            assert code in out

    def test_repro_cli_subcommand(self, tree, capsys):
        """One front: ``python -m repro.lint`` is the linter's only entry;
        ``repro.cli`` refuses ``lint`` like any unknown subcommand."""
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", str(tree)])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_python_dash_m_entry_point(self, tree):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tree), "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_FINDINGS
        assert json.loads(proc.stdout)["ok"] is False
