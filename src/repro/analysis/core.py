"""Rule-engine core: findings, the rule registry, and per-module context.

A rule is a class with an ``id`` (``RAxxx``), a ``severity``, and a
``check(ctx)`` generator yielding :class:`Finding` objects.  Rules are
registered with the :func:`register` decorator and run by
:mod:`repro.analysis.engine` over every module in the scanned tree.

Inline suppression uses ``# repro: noqa[RA201]`` (or a bare
``# repro: noqa`` to silence every rule) on the offending line, followed
by the reason.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: pseudo-rule id attached to unparseable files
PARSE_ERROR_RULE = "RA000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    display_path: str
    tree: ast.AST
    lines: List[str]

    @classmethod
    def from_source(cls, source: str, path: Path,
                    display_path: Optional[str] = None) -> "ModuleContext":
        return cls(
            path=path,
            display_path=display_path or str(path),
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def noqa_for_line(self, lineno: int) -> Optional[frozenset]:
        """Suppression directive on a line: None (no directive), an empty
        frozenset (suppress everything), or a set of rule ids."""
        match = _NOQA_RE.search(self.source_line(lineno))
        if match is None:
            return None
        rules = match.group("rules")
        if rules is None:
            return frozenset()
        return frozenset(r.strip().upper() for r in rules.split(",")
                         if r.strip())


class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    id: str = "RA999"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule id -> rule instance, in registration order
RULE_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule (as a singleton) to the registry."""
    instance = cls()
    if instance.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    RULE_REGISTRY[instance.id] = instance
    return cls


def all_rules() -> List[Rule]:
    return list(RULE_REGISTRY.values())
