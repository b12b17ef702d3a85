"""Tier-1 gate: the whole repository must pass the full rule set.

This is the enforcement point for the autograd-contract linter — a new
finding in ``src/``, ``tests/``, or ``benchmarks/`` fails the suite until
it is fixed or explicitly justified (inline ``# repro: noqa[RULE]`` or a
baseline entry).  ``tests/analysis_fixtures/`` is excluded: those files
violate the rules on purpose.
"""

from pathlib import Path

from repro.analysis import Baseline, analyze_paths, discover_baseline, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
GATED_TREES = [SRC, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
EXCLUDE = ["analysis_fixtures"]


def run_gate(paths=None):
    paths = paths if paths is not None else GATED_TREES
    baseline_path = discover_baseline([SRC])
    baseline = Baseline.load(baseline_path) if baseline_path else None
    return analyze_paths([str(p) for p in paths], baseline=baseline,
                         exclude=EXCLUDE)


def test_gated_trees_are_clean():
    report = run_gate()
    assert report.exit_code == 0, "\n" + render_text(report)
    assert report.parse_errors == []


def test_src_tree_is_clean_without_baseline():
    # the baseline only grandfathers test/benchmark findings; production
    # code must be clean outright
    report = analyze_paths([str(SRC)])
    assert report.exit_code == 0, "\n" + render_text(report)


def test_gate_actually_scans_the_package():
    report = run_gate()
    assert report.files_scanned >= 100  # src ~77 modules + tests + benchmarks
    assert len(set(report.rules_run)) >= 12  # RA1xx-RA4xx, RA6xx, RA7xx, RA901


def test_gate_skips_the_deliberately_bad_fixtures():
    report = run_gate()
    fixture_dir = "analysis_fixtures"
    assert all(fixture_dir not in f.path for f in report.all_raw_findings)


def test_baseline_has_no_stale_entries():
    report = run_gate()
    assert report.stale_baseline == [], (
        "baseline entries no longer match any finding — remove them: "
        + ", ".join(e.fingerprint for e in report.stale_baseline))
