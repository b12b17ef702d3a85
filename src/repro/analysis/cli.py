"""Command line for the static analyzer.

Invocable three ways, all sharing this module:

* ``python -m repro.analysis [paths...]``
* ``repro lint [paths...]`` (subcommand of the main CLI)
* ``repro-lint [paths...]`` (console script)

Exit codes are deterministic: 0 = clean tree (noqa-suppressed findings
do not fail), 1 = actionable findings or unparseable files, 2 = usage
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import RULE_REGISTRY
from .engine import analyze_paths, iter_python_files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based static checks for this repository",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text", dest="fmt",
                        help="report format ('github' emits Actions "
                             "::error/::warning annotations)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="NAME",
                        help="skip files under any directory component "
                             "NAME (repeatable; e.g. analysis_fixtures)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
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

    try:
        report = analyze_paths(paths, select=select, exclude=args.exclude)
    except KeyError as exc:  # unknown --select rule id
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    from .reporters import render_github, render_text

    renderer = render_github if args.fmt == "github" else render_text
    print(renderer(report))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
