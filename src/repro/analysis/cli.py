"""Command line for the static analyzer.

Invocable three ways, all sharing this module:

* ``python -m repro.analysis [paths...]``
* ``repro lint [paths...]`` (subcommand of the main CLI)
* ``repro-lint [paths...]`` (console script)

Exit codes are deterministic: 0 = clean tree (baselined / noqa-suppressed
findings do not fail), 1 = actionable findings or unparseable files,
2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline, discover_baseline
from .core import RULE_REGISTRY
from .engine import analyze_paths, iter_python_files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based autograd-contract linter for this repository",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "json", "github", "sarif"),
                        default="text", dest="fmt",
                        help="report format ('github' emits Actions "
                             "::error/::warning annotations; 'sarif' emits "
                             "SARIF 2.1.0 for code scanning)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="NAME",
                        help="skip files under any directory component "
                             "NAME (repeatable; e.g. analysis_fixtures)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file (default: nearest "
                             "analysis-baseline.json above the scanned paths)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to the baseline "
                             "file and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline file dropping entries "
                             "that no longer fire, then exit 0")
    parser.add_argument("--fail-stale", action="store_true",
                        help="exit 1 if the baseline contains stale entries "
                             "(CI hygiene gate)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _format_rule_list() -> str:
    lines = []
    for rule in RULE_REGISTRY.values():
        lines.append(f"{rule.id}  {rule.name:<26} [{rule.severity}] "
                     f"{rule.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(_format_rule_list())
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    select = args.select.split(",") if args.select else None
    try:
        files = iter_python_files(paths, exclude=args.exclude)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not files:
        print(f"error: no python files found under: {', '.join(paths)}",
              file=sys.stderr)
        return 2

    baseline = None
    baseline_path = None
    if not args.no_baseline:
        baseline_path = (Path(args.baseline) if args.baseline
                         else discover_baseline([Path(p) for p in paths]))
        if baseline_path is not None and baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError, OSError) as exc:
                print(f"error: invalid baseline {baseline_path}: {exc}",
                      file=sys.stderr)
                return 2

    try:
        report = analyze_paths(paths, select=select, baseline=baseline,
                               exclude=args.exclude)
    except KeyError as exc:  # unknown --select rule id
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.prune_baseline:
        if baseline is None:
            print("error: --prune-baseline needs a baseline file",
                  file=sys.stderr)
            return 2
        stale = {entry.fingerprint for entry in report.stale_baseline}
        baseline.entries = {fp: entry
                            for fp, entry in baseline.entries.items()
                            if fp not in stale}
        baseline.save(baseline.source)
        print(f"pruned {len(stale)} stale entr"
              f"{'y' if len(stale) == 1 else 'ies'}; "
              f"{len(baseline)} remain in {baseline.source}")
        return 0

    if args.write_baseline:
        target = baseline_path or Path(args.baseline or "analysis-baseline.json")
        merged = Baseline.from_findings(report.findings + report.baselined)
        if baseline is not None:
            # keep existing justifications for entries that still match
            for fp, entry in baseline.entries.items():
                if fp in merged.entries and entry.justification:
                    merged.entries[fp] = entry
        merged.save(target)
        print(f"wrote {len(merged)} baseline entr"
              f"{'y' if len(merged) == 1 else 'ies'} to {target}")
        return 0

    from .reporters import render_github, render_json, render_sarif, render_text

    renderer = {"json": render_json, "github": render_github,
                "sarif": render_sarif, "text": render_text}[args.fmt]
    print(renderer(report))
    if args.fail_stale and report.stale_baseline and report.exit_code == 0:
        print(f"error: {len(report.stale_baseline)} stale baseline "
              f"entr{'y' if len(report.stale_baseline) == 1 else 'ies'} "
              f"(run --prune-baseline)", file=sys.stderr)
        return 1
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
