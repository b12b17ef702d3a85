"""Tests for the benchmark-output summarizer."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_summarize",
    Path(__file__).resolve().parent.parent / "benchmarks" / "summarize.py",
)
summarize = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(summarize)

SAMPLE = """\
===== Table III: performance comparison =====
some table rows
3/5 shape checks hold
.
===== Figure 4: trends =====
1/1 shape checks hold
"""


class TestParse:
    def test_sections_parsed(self):
        sections = summarize.parse_sections(SAMPLE)
        assert sections == [
            ("Table III: performance comparison", 3, 5),
            ("Figure 4: trends", 1, 1),
        ]

    def test_ignores_unmatched_tallies(self):
        text = "4/4 shape checks hold\n"
        assert summarize.parse_sections(text) == []

    def test_markdown_totals(self):
        md = summarize.to_markdown([("A", 1, 2), ("B", 2, 2)])
        assert "| A | 1/2 |" in md
        assert "**3/4**" in md

    def test_main_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "bench.txt"
        path.write_text(SAMPLE)
        assert summarize.main(["summarize.py", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_main_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("nothing here")
        assert summarize.main(["summarize.py", str(path)]) == 1

    def test_main_usage(self):
        assert summarize.main(["summarize.py"]) == 2


ROBUSTNESS = """\
{"version": 1, "tool": "repro.robustness",
 "checkpoint": {"size_bytes": 65536, "arrays": 34,
                "save_ms": 12.5, "verify_ms": 4.25, "load_ms": 6.0},
 "run": {"plain_s": 10.0, "journaled_s": 10.4,
         "journal_overhead_pct": 4.0,
         "resume_s": 0.5, "resume_speedup": 20.0, "resumed_spans": 3}}
"""


class TestRobustnessIngestion:
    def test_parse_report_rows(self):
        rows = dict(summarize.parse_robustness(ROBUSTNESS))
        assert rows["checkpoint save"] == "12.5 ms (64 KiB, 34 arrays)"
        assert rows["checkpoint verify"] == "4.2 ms"
        assert rows["checkpoint load"] == "6.0 ms"
        assert rows["journaled-run overhead"] == "+4.0% wall clock"
        assert rows["resume speedup"] == "20.0x (3 spans reused)"

    def test_parse_rejects_foreign_json(self):
        with pytest.raises(ValueError, match="not a robustness report"):
            summarize.parse_robustness('{"tool": "something-else"}')

    def test_markdown_prefixes_rows(self):
        md = summarize.to_markdown(
            [("A", 1, 1)], robustness=[("checkpoint save", "1.0 ms")])
        assert md.splitlines()[-1] == "| robustness: checkpoint save | 1.0 ms |"

    def test_main_with_robustness_flag(self, tmp_path, capsys):
        bench = tmp_path / "bench.txt"
        bench.write_text(SAMPLE)
        report = tmp_path / "robustness.json"
        report.write_text(ROBUSTNESS)
        assert summarize.main(["summarize.py", str(bench),
                               "--robustness", str(report)]) == 0
        out = capsys.readouterr().out
        assert "| robustness: resume speedup | 20.0x (3 spans reused) |" in out

    def test_main_with_missing_robustness_file(self, tmp_path):
        bench = tmp_path / "bench.txt"
        bench.write_text(SAMPLE)
        assert summarize.main(
            ["summarize.py", str(bench),
             "--robustness", str(tmp_path / "absent.json")]) == 2

    def test_main_robustness_flag_without_value(self, tmp_path):
        bench = tmp_path / "bench.txt"
        bench.write_text(SAMPLE)
        assert summarize.main(["summarize.py", str(bench),
                               "--robustness"]) == 2

    def test_end_to_end_with_real_probe(self, tmp_path, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "robustness_probe",
            Path(__file__).resolve().parent.parent / "benchmarks"
            / "robustness_probe.py")
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)

        report = probe.measure(repeats=1, workdir=tmp_path)
        assert report["tool"] == "repro.robustness"
        assert report["checkpoint"]["size_bytes"] > 0
        assert report["run"]["resumed_spans"] == 3

        report_path = tmp_path / "robustness.json"
        report_path.write_text(summarize.json.dumps(report))
        bench = tmp_path / "bench.txt"
        bench.write_text(SAMPLE)
        assert summarize.main(["summarize.py", str(bench),
                               "--robustness", str(report_path)]) == 0
        assert "robustness: checkpoint save" in capsys.readouterr().out
