"""Engine mechanics: noqa suppression, baseline round-trip and scope,
reporters (SARIF included), file discovery, and CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    analyze_paths,
    analyze_source,
    discover_baseline,
    iter_python_files,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import selected_rules

BAD_LOSS = (
    "import numpy as np\n"
    "def nll_loss(probs):\n"
    "    return -np.log(probs).mean()\n"
)

BAD_BUFFER = (
    "def corrupt(param, grad):\n"
    "    param.data += 0.1 * grad\n"
)


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source)
    return path


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self, tmp_path):
        src = BAD_LOSS.replace(".mean()", ".mean()  # repro: noqa")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_bracketed_noqa_suppresses_named_rule(self, tmp_path):
        src = BAD_LOSS.replace(".mean()", ".mean()  # repro: noqa[RA301]")
        assert analyze_source(src, tmp_path / "m.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        src = BAD_LOSS.replace(".mean()", ".mean()  # repro: noqa[RA401]")
        findings = analyze_source(src, tmp_path / "m.py")
        assert [f.rule for f in findings] == ["RA301"]

    def test_suppressed_findings_are_reported_not_dropped(self, tmp_path):
        write(tmp_path, "m.py",
              BAD_LOSS.replace(".mean()", ".mean()  # repro: noqa[RA301]"))
        report = analyze_paths([str(tmp_path)])
        assert report.findings == []
        assert [f.rule for f in report.noqa_suppressed] == ["RA301"]
        assert report.exit_code == 0


class TestBaseline:
    def test_round_trip(self, tmp_path):
        write(tmp_path, "m.py", BAD_LOSS)
        report = analyze_paths([str(tmp_path)])
        assert report.exit_code == 1 and len(report.findings) == 1

        baseline_path = tmp_path / "analysis-baseline.json"
        Baseline.from_findings(report.findings).save(baseline_path)
        loaded = Baseline.load(baseline_path)
        assert len(loaded) == 1

        again = analyze_paths([str(tmp_path)], baseline=loaded)
        assert again.findings == []
        assert [f.rule for f in again.baselined] == ["RA301"]
        assert again.exit_code == 0
        assert again.stale_baseline == []

    def test_fingerprint_survives_line_shift(self, tmp_path):
        write(tmp_path, "m.py", BAD_LOSS)
        report = analyze_paths([str(tmp_path)])
        baseline = Baseline.from_findings(report.findings)

        # unrelated edit above the finding: fingerprint must still match
        write(tmp_path, "m.py", "'''docstring'''\n\n" + BAD_LOSS)
        again = analyze_paths([str(tmp_path)], baseline=baseline)
        assert again.findings == [] and len(again.baselined) == 1

    def test_fixed_finding_goes_stale(self, tmp_path):
        write(tmp_path, "m.py", BAD_LOSS)
        baseline = Baseline.from_findings(analyze_paths([str(tmp_path)]).findings)

        write(tmp_path, "m.py",
              BAD_LOSS.replace("np.log(probs)", "np.log(probs + 1e-12)"))
        report = analyze_paths([str(tmp_path)], baseline=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert report.stale_baseline[0].rule == "RA301"

    def test_load_rejects_unknown_version(self, tmp_path):
        path = write(tmp_path, "analysis-baseline.json",
                     json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_discover_walks_up_from_scanned_path(self, tmp_path):
        marker = write(tmp_path, "analysis-baseline.json",
                       json.dumps({"version": 1, "findings": []}))
        nested = tmp_path / "pkg" / "sub"
        nested.mkdir(parents=True)
        module = write(nested, "m.py", "x = 1\n")
        assert discover_baseline([module]) == marker
        assert discover_baseline([nested]) == marker

    def test_committed_baseline_covers_only_justified_test_code(self):
        # src/ must stay clean on its own; the only grandfathered
        # findings are deliberate Tensor-buffer mutations and short-lived
        # buffer aliases in test setup
        repo_root = Path(__file__).resolve().parents[1]
        payload = json.loads(
            (repo_root / "analysis-baseline.json").read_text())
        assert payload["findings"], "expected grandfathered test findings"
        for entry in payload["findings"]:
            assert entry["path"].startswith("tests/"), entry
            assert entry["rule"] in ("RA101", "RA603"), entry
            assert entry.get("justification"), entry


class TestBaselineScope:
    """A narrowed run judges only the baseline entries it could match."""

    NARROWED = {
        "select": lambda root: [str(root), "--select", "RA401"],
        "path": lambda root: [str(root / "other")],
    }

    @pytest.fixture()
    def tree(self, tmp_path):
        (tmp_path / "lib").mkdir()
        (tmp_path / "other").mkdir()
        write(tmp_path / "lib", "loss.py", BAD_LOSS)
        write(tmp_path / "other", "defaults.py",
              "def f(seen=[]):\n    return seen\n")
        baseline = tmp_path / "analysis-baseline.json"
        assert lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        assert len(Baseline.load(baseline)) == 2
        return tmp_path, baseline

    @pytest.mark.parametrize("narrowing", sorted(NARROWED))
    def test_narrowed_run_leaves_other_entries_alone(self, tree, narrowing,
                                                     capsys):
        root, baseline = tree
        argv = self.NARROWED[narrowing](root) + ["--baseline", str(baseline)]
        assert lint_main(argv + ["--fail-stale"]) == 0
        assert "stale" not in capsys.readouterr().err
        assert lint_main(argv + ["--prune-baseline"]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out
        assert len(Baseline.load(baseline)) == 2


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
        write(tmp_path, "m.py",
              BAD_LOSS + "\ndef f(seen=[]):\n    return seen\n")
        report = analyze_paths([str(tmp_path)], select=["RA401"])
        assert report.rules_run == ["RA401"]
        assert [f.rule for f in report.findings] == ["RA401"]


class TestReporters:
    def test_text_summary_on_findings(self, tmp_path):
        write(tmp_path, "m.py", BAD_LOSS)
        text = render_text(analyze_paths([str(tmp_path)]))
        assert "RA301" in text
        assert "1 finding(s) (1 error(s), 0 warning(s)) across 1 file(s)" in text
        assert "[RA301×1]" in text

    def test_text_summary_clean(self, tmp_path):
        write(tmp_path, "m.py", "x = 1\n")
        text = render_text(analyze_paths([str(tmp_path)]))
        assert "clean: 0 findings across 1 file(s)" in text

    def test_json_payload(self, tmp_path):
        write(tmp_path, "m.py", BAD_LOSS)
        payload = json.loads(render_json(analyze_paths([str(tmp_path)])))
        assert payload["tool"] == "repro.analysis"
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["by_rule"] == {"RA301": 1}
        assert payload["exit_code"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RA301"
        assert finding["fingerprint"]
        assert set(payload["rules_run"]) >= {"RA101", "RA301", "RA402"}

    def test_parse_error_reported(self, tmp_path):
        write(tmp_path, "broken.py", "def f(:\n")
        report = analyze_paths([str(tmp_path)])
        assert report.exit_code == 1
        assert [f.rule for f in report.parse_errors] == ["RA000"]
        assert "RA000" in render_text(report)


class TestSarif:
    def test_sarif_shape_and_fingerprints(self, tmp_path):
        write(tmp_path, "m.py", BAD_BUFFER)
        report = analyze_paths([str(tmp_path)])
        sarif = json.loads(render_sarif(report))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RA101" in rule_ids and rule_ids == sorted(rule_ids)
        (result,) = run["results"]
        assert result["ruleId"] == "RA101"
        assert result["level"] == "error"
        fp = result["partialFingerprints"]["reproFingerprint/v1"]
        assert fp == report.findings[0].fingerprint()
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == report.findings[0].line

    def test_sarif_is_deterministic(self, tmp_path):
        write(tmp_path, "m.py", BAD_BUFFER)
        r1 = analyze_paths([str(tmp_path)])
        r2 = analyze_paths([str(tmp_path)])
        assert render_sarif(r1) == render_sarif(r2)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "m.py", "x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "m.py", BAD_LOSS)
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        assert "RA301" in capsys.readouterr().out

    def test_no_files_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert lint_main([str(empty)]) == 2
        assert "no python files" in capsys.readouterr().err

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        write(tmp_path, "m.py", "x = 1\n")
        assert lint_main([str(tmp_path), "--select", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_invalid_baseline_exits_two(self, tmp_path, capsys):
        write(tmp_path, "m.py", "x = 1\n")
        bad = write(tmp_path, "bad-baseline.json",
                    json.dumps({"version": 99, "findings": []}))
        assert lint_main([str(tmp_path), "--baseline", str(bad)]) == 2
        assert "invalid baseline" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        write(tmp_path, "m.py", BAD_LOSS)
        assert lint_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"RA301": 1}

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        write(tmp_path, "m.py", BAD_LOSS)
        baseline = tmp_path / "analysis-baseline.json"
        assert lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # grandfathered finding no longer fails the run
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def _stale_baseline(self, tmp_path):
        # the entry names a deleted file under the scanned path, so it
        # is stale even though every other file is clean
        write(tmp_path, "m.py", "x = 1\n")
        return write(tmp_path, "analysis-baseline.json", json.dumps({
            "version": 1,
            "findings": [{"fingerprint": "feedfeedfeedfeed",
                          "rule": "RA101",
                          "path": (tmp_path / "gone.py").as_posix(),
                          "justification": "stale on purpose"}],
        }))

    def test_fail_stale_gates_clean_runs(self, tmp_path, capsys):
        baseline = self._stale_baseline(tmp_path)
        code = lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--fail-stale"])
        assert code == 1
        assert "stale baseline" in capsys.readouterr().err

    def test_prune_baseline_rewrites_file(self, tmp_path, capsys):
        baseline = self._stale_baseline(tmp_path)
        code = lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--prune-baseline"])
        assert code == 0
        payload = json.loads(baseline.read_text())
        assert payload["findings"] == []
        # and the gate passes afterwards
        assert lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--fail-stale"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RA101", "RA201", "RA301", "RA401"):
            assert rule_id in out

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
