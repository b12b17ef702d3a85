"""Static-analysis smoke benchmark.

Runs the autograd-contract linter over ``src/`` through the same JSON
path CI uses (``--format json``) and reports the counts as a bench
section, so ``summarize.py`` tracks lint health alongside the
reproduction metrics.
"""

import json
from pathlib import Path

from conftest import report

from repro.analysis import Baseline, analyze_paths, discover_baseline, render_json

SRC = Path(__file__).resolve().parent.parent / "src"


def test_lint_src_tree():
    baseline_path = discover_baseline([SRC])
    baseline = Baseline.load(baseline_path) if baseline_path else None
    analysis = analyze_paths([str(SRC)], baseline=baseline)
    payload = json.loads(render_json(analysis))
    summary = payload["summary"]

    body = "\n".join(f"{key}: {summary[key]}"
                     for key in ("files_scanned", "findings", "errors",
                                 "warnings", "noqa_suppressed", "baselined"))
    checks = [
        {"check": "lint exits clean on src/",
         "holds": "yes" if payload["exit_code"] == 0 else "no"},
        {"check": "every module parses",
         "holds": "yes" if summary["parse_errors"] == 0 else "no"},
        {"check": ">=8 distinct rules ran",
         "holds": "yes" if len(set(payload["rules_run"])) >= 8 else "no"},
        {"check": "baseline carries no stale entries",
         "holds": "yes" if summary["stale_baseline"] == 0 else "no"},
    ]
    report("Static analysis: repro.analysis over src/", body, checks)

    assert payload["exit_code"] == 0
    assert summary["files_scanned"] >= 50
