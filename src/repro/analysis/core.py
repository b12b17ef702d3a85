"""Rule-engine core: findings, the rule registry, and per-module context.

The analyzer is purpose-built for this repository's numpy autograd
substrate: the invariants it enforces (no out-of-tape mutation of
``Tensor.data``, no global ``np.random`` state, epsilon-guarded loss
math, ``no_grad`` around inference-only recomputation) are exactly the
ones whose violation silently corrupts IMSR results without failing a
single unit test.

A rule is a class with an ``id`` (``RAxxx``), a ``severity``, and a
``check(ctx)`` generator yielding :class:`Finding` objects.  Rules are
registered with the :func:`register` decorator and run by
:mod:`repro.analysis.engine` over every module in the scanned tree.

Inline suppression uses ``# repro: noqa[RA101]`` (or a bare
``# repro: noqa`` to silence every rule) on the offending line;
grandfathered findings live in a committed baseline file instead
(:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: pseudo-rule id attached to unparseable files
PARSE_ERROR_RULE = "RA000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: modules allowed to mutate Tensor buffers in place — the autograd/nn
#: substrate itself plus checkpoint restoration
SUBSTRATE_PREFIXES = ("repro.autograd", "repro.nn")
SUBSTRATE_MODULES = ("repro.persistence",)


@dataclass
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    source: str = ""

    def fingerprint(self) -> str:
        """Stable id for baseline matching: rule + file + source text.

        Line numbers are deliberately excluded so unrelated edits above a
        grandfathered finding do not invalidate its baseline entry.
        """
        key = f"{self.rule}:{Path(self.path).as_posix()}:{self.source.strip()}"
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source": self.source.strip(),
            "fingerprint": self.fingerprint(),
        }


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name; falls back to the file stem."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        name = ".".join(parts[parts.index("repro"):])
        if name.endswith(".__init__"):
            name = name[: -len(".__init__")]
        return name
    return path.stem


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    display_path: str
    module: str
    tree: ast.AST
    lines: List[str]
    _parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def from_source(cls, source: str, path: Path,
                    display_path: Optional[str] = None) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            display_path=display_path or str(path),
            module=module_name_for(path),
            tree=tree,
            lines=source.splitlines(),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[id(child)] = parent
        return ctx

    @property
    def is_substrate(self) -> bool:
        """True for modules whitelisted to touch Tensor buffers directly."""
        return (self.module.startswith(SUBSTRATE_PREFIXES)
                or self.module in SUBSTRATE_MODULES
                or self.module in [p.rsplit(".", 1)[-1] for p in SUBSTRATE_MODULES])

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

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(id(node))
        while current is not None:
            yield current
            current = self._parents.get(id(current))


class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    id: str = "RA999"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.display_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            source=ctx.source_line(line),
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
