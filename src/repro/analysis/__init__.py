"""Static analysis for the autograd-based training stack.

A from-scratch numpy autograd engine has no runtime guardrails: code
that mutates ``Tensor.data`` in place, does math outside the tape, or
draws from the global ``np.random`` state corrupts every IMSR result
*silently*.  This package enforces those contracts mechanically — an
AST rule engine with per-rule ids/severities, ``# repro: noqa[RULE]``
inline suppression, a committed baseline for grandfathered findings,
text/JSON/GitHub/SARIF reporters, and deterministic exit codes.

Every rule (RA1xx–RA7xx, RA9xx) runs on one module at a time.

Run it as ``python -m repro.analysis src``, ``repro lint``, or the
``repro-lint`` console script; the rule catalogue lives in
``docs/ANALYSIS.md``.
"""

from .baseline import Baseline, BaselineEntry, discover_baseline
from .core import (
    Finding,
    ModuleContext,
    Rule,
    RULE_REGISTRY,
    all_rules,
    register,
)
from .engine import AnalysisReport, analyze_paths, analyze_source, iter_python_files
from .reporters import render_github, render_json, render_sarif, render_text
from . import rules  # registers the rule set on import
from . import aliasing  # registers the RA6xx aliasing family
from . import determinism  # registers the RA7xx determinism family

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleContext",
    "Rule",
    "RULE_REGISTRY",
    "aliasing",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "determinism",
    "discover_baseline",
    "iter_python_files",
    "register",
    "render_github",
    "render_json",
    "render_sarif",
    "render_text",
    "rules",
]
