"""Tier-1 gate: the whole repository must pass the full rule set.

This is the enforcement point for the linter — a new finding in
``src/``, ``tests/``, or ``benchmarks/`` fails the suite until it is
fixed or explicitly justified inline (``# repro: noqa[RULE] <reason>``).
``tests/analysis_fixtures/`` is excluded: those files violate the rules
on purpose.  The trees are linted once per module, not once per test.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
GATED_TREES = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
EXCLUDE = ["analysis_fixtures"]


@pytest.fixture(scope="module")
def report():
    return analyze_paths([str(p) for p in GATED_TREES], exclude=EXCLUDE)


def test_gated_trees_are_clean(report):
    assert report.exit_code == 0, "\n" + render_text(report)
    assert report.parse_errors == []


def test_gate_actually_scans_the_package(report):
    assert report.files_scanned >= 100  # src ~90 modules + tests + benchmarks
    assert report.rules_run == ["RA201"]


def test_gate_skips_the_deliberately_bad_fixtures(report):
    fixture_dir = "analysis_fixtures"
    assert all(fixture_dir not in f.path for f in report.all_raw_findings)
