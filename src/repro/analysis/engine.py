"""File discovery and rule execution.

:func:`analyze_paths` is the programmatic entry point: it walks the
given files/directories, parses every python module once, runs the
registered rules, applies ``# repro: noqa`` suppressions, and returns an
:class:`AnalysisReport` with deterministic ordering and exit semantics
(0 = clean, 1 = actionable findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from . import rules as _rules  # noqa: F401  (importing registers the rules)
from .core import (
    PARSE_ERROR_RULE,
    RULE_REGISTRY,
    SEVERITY_ERROR,
    Finding,
    ModuleContext,
    Rule,
)

_SKIP_DIR_SUFFIXES = (".egg-info",)
_SKIP_DIR_NAMES = ("__pycache__", "build", "dist")


def iter_python_files(paths: Sequence[str],
                      exclude: Sequence[str] = ()) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated module list.

    ``exclude`` names path components to skip during directory expansion
    (e.g. ``analysis_fixtures`` — deliberately-violating test fixtures);
    explicitly listed files are never excluded.
    """
    seen = set()
    out: List[Path] = []
    excluded = set(exclude)

    def _add(path: Path) -> None:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            out.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            _add(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if any(part.startswith(".") or part in _SKIP_DIR_NAMES
                       or part in excluded
                       or part.endswith(_SKIP_DIR_SUFFIXES)
                       for part in parts):
                    continue
                _add(candidate)
    return out


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    noqa_suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 = clean (noqa-suppressed findings do not fail the run)."""
        return 1 if (self.findings or self.parse_errors) else 0

    @property
    def all_raw_findings(self) -> List[Finding]:
        return self.findings + self.noqa_suppressed


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def selected_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    if select is None:
        return list(RULE_REGISTRY.values())
    wanted = {s.strip().upper() for s in select if s.strip()}
    unknown = wanted - set(RULE_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                       f"known: {', '.join(RULE_REGISTRY)}")
    return [rule for rid, rule in RULE_REGISTRY.items() if rid in wanted]


def _suppressed(ctx: ModuleContext, finding: Finding) -> bool:
    directive = ctx.noqa_for_line(finding.line)
    return directive is not None and (not directive
                                      or finding.rule in directive)


def analyze_source(source: str, path: Path, select: Optional[Sequence[str]] = None,
                   display_path: Optional[str] = None) -> List[Finding]:
    """Run the (selected) rules over one in-memory module, noqa applied."""
    ctx = ModuleContext.from_source(source, path,
                                    display_path=display_path or str(path))
    findings = [f for rule in selected_rules(select) for f in rule.check(ctx)]
    return _sorted([f for f in findings if not _suppressed(ctx, f)])


def _sorted(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def analyze_paths(paths: Sequence[str], select: Optional[Sequence[str]] = None,
                  exclude: Sequence[str] = ()) -> AnalysisReport:
    """Analyze a tree; apply noqa directives."""
    rules = selected_rules(select)
    report = AnalysisReport(rules_run=[r.id for r in rules])

    for path in iter_python_files(paths, exclude=exclude):
        report.files_scanned += 1
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
            ctx = ModuleContext.from_source(source, path,
                                            display_path=display)
        except (UnicodeDecodeError, OSError, SyntaxError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            report.parse_errors.append(Finding(
                rule=PARSE_ERROR_RULE, severity=SEVERITY_ERROR, path=display,
                line=line, col=0, message=f"could not analyze file: {exc}"))
            continue
        for rule in rules:
            for finding in rule.check(ctx):
                if _suppressed(ctx, finding):
                    report.noqa_suppressed.append(finding)
                else:
                    report.findings.append(finding)

    report.findings = _sorted(report.findings)
    report.noqa_suppressed = _sorted(report.noqa_suppressed)
    return report
