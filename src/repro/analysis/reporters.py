"""Text and GitHub-annotation renderings of an
:class:`~repro.analysis.engine.AnalysisReport`.

The text form is the human / CI-log view; the GitHub form adds one
``::error``/``::warning`` workflow command per finding so CI marks each
finding on the PR diff.
"""

from __future__ import annotations

from collections import Counter

from .core import SEVERITY_ERROR, SEVERITY_WARNING
from .engine import AnalysisReport


def render_text(report: AnalysisReport) -> str:
    lines = [f.format() for f in report.parse_errors + report.findings]
    files = report.files_scanned
    if report.findings or report.parse_errors:
        severities = Counter(f.severity for f in report.findings)
        errors = severities.get(SEVERITY_ERROR, 0) + len(report.parse_errors)
        by_rule = Counter(f.rule for f in report.findings)
        fired = ", ".join(f"{rid}×{n}" for rid, n in sorted(by_rule.items()))
        lines.append(
            f"{len(report.findings)} finding(s) "
            f"({errors} error(s), {severities.get(SEVERITY_WARNING, 0)} "
            f"warning(s)) across {files} file(s)"
            + (f" [{fired}]" if fired else ""))
    else:
        suppressed = len(report.noqa_suppressed)
        detail = f" ({suppressed} noqa-suppressed)" if suppressed else ""
        lines.append(f"clean: 0 findings across {files} file(s){detail}")
    return "\n".join(lines)


def _gha_escape(text: str) -> str:
    """Escape a workflow-command message per the Actions toolkit rules."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def render_github(report: AnalysisReport) -> str:
    """GitHub Actions ``::error``/``::warning`` workflow commands.

    One annotation per finding (and per parse error), so findings show
    inline on the PR diff; the final line is the human text summary for
    the raw job log.
    """
    lines = []
    for f in report.parse_errors + report.findings:
        level = "error" if f.severity == SEVERITY_ERROR else "warning"
        lines.append(
            f"::{level} file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule}::{_gha_escape(f.message)}")
    lines.append(render_text(report))
    return "\n".join(lines)
