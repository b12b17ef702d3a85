"""Static analysis for the repository's code.

An AST rule engine with per-rule ids/severities, ``# repro: noqa[RULE]``
inline suppression, text and GitHub-annotation reporters, and
deterministic exit codes.  It holds one rule, RA201: every random draw
comes from a threaded, seeded generator, never from the global
``np.random`` state or the stdlib ``random`` module.

Run it as ``python -m repro.analysis src``, ``repro lint``, or the
``repro-lint`` console script; the rule is documented in
``docs/ANALYSIS.md``.
"""

from .core import (
    Finding,
    ModuleContext,
    Rule,
    RULE_REGISTRY,
    all_rules,
    register,
)
from .engine import AnalysisReport, analyze_paths, analyze_source, iter_python_files
from .reporters import render_github, render_text
from . import rules  # registers the rule set on import

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "Rule",
    "RULE_REGISTRY",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "register",
    "render_github",
    "render_text",
    "rules",
]
