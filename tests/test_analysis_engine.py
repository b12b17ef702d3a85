"""Engine mechanics: noqa suppression, reporters, file discovery, rule
selection, and CLI exit codes."""

from pathlib import Path

import pytest

from repro.analysis import (
    analyze_paths,
    analyze_source,
    iter_python_files,
    render_github,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import selected_rules

BAD_DRAW = (
    "import numpy as np\n"
    "def noise(n):\n"
    "    return np.random.rand(n)\n"
)


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source)
    return path


def noqa(comment: str) -> str:
    return BAD_DRAW.replace("rand(n)", f"rand(n)  # {comment}")


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self, tmp_path):
        assert analyze_source(noqa("repro: noqa"), tmp_path / "m.py") == []

    def test_bracketed_noqa_suppresses_named_rule(self, tmp_path):
        src = noqa("repro: noqa[RA201] test noise")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        src = noqa("repro: noqa[RA999]")
        findings = analyze_source(src, tmp_path / "m.py")
        assert [f.rule for f in findings] == ["RA201"]

    def test_suppressed_findings_are_reported_not_dropped(self, tmp_path):
        write(tmp_path, "m.py", noqa("repro: noqa[RA201] test noise"))
        report = analyze_paths([str(tmp_path)])
        assert report.findings == []
        assert [f.rule for f in report.noqa_suppressed] == ["RA201"]
        assert report.exit_code == 0


class TestDiscoveryAndSelection:
    def test_iter_skips_caches_and_hidden_dirs(self, tmp_path):
        write(tmp_path, "keep.py", "x = 1\n")
        for skipped in ("__pycache__", "build", ".hidden"):
            d = tmp_path / skipped
            d.mkdir()
            write(d, "drop.py", "x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [f.name for f in files] == ["keep.py"]

    def test_iter_dedups_overlapping_paths(self, tmp_path):
        path = write(tmp_path, "m.py", "x = 1\n")
        files = iter_python_files([str(tmp_path), str(path)])
        assert len(files) == 1

    def test_selected_rules_unknown_id(self):
        with pytest.raises(KeyError):
            selected_rules(["RA999"])

    def test_select_restricts_rules_run(self, tmp_path):
        write(tmp_path, "m.py", BAD_DRAW)
        report = analyze_paths([str(tmp_path)], select=["ra201"])
        assert report.rules_run == ["RA201"]
        assert [f.rule for f in report.findings] == ["RA201"]


class TestReporters:
    def test_text_summary_on_findings(self, tmp_path):
        write(tmp_path, "m.py", BAD_DRAW)
        text = render_text(analyze_paths([str(tmp_path)]))
        assert "RA201" in text
        assert "1 finding(s) (1 error(s), 0 warning(s)) across 1 file(s)" in text
        assert "[RA201×1]" in text

    def test_text_summary_clean(self, tmp_path):
        write(tmp_path, "m.py", "x = 1\n")
        text = render_text(analyze_paths([str(tmp_path)]))
        assert "clean: 0 findings across 1 file(s)" in text

    def test_github_annotations(self, tmp_path):
        path = write(tmp_path, "m.py", BAD_DRAW)
        lines = render_github(analyze_paths([str(path)])).splitlines()
        assert lines[0].startswith(
            f"::error file={path.as_posix()},line=3,col=12,title=RA201::")
        assert lines[-1].startswith("1 finding(s)")

    def test_parse_error_reported(self, tmp_path):
        write(tmp_path, "broken.py", "def f(:\n")
        report = analyze_paths([str(tmp_path)])
        assert report.exit_code == 1
        assert [f.rule for f in report.parse_errors] == ["RA000"]
        assert "RA000" in render_text(report)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "m.py", "x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "m.py", BAD_DRAW)
        assert lint_main([str(tmp_path)]) == 1
        assert "RA201" in capsys.readouterr().out

    def test_no_files_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert lint_main([str(empty)]) == 2
        assert "no python files" in capsys.readouterr().err

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        write(tmp_path, "m.py", "x = 1\n")
        assert lint_main([str(tmp_path), "--select", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        assert "RA201" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        write(tmp_path, "m.py", "x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path)],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
