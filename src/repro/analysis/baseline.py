"""Committed baseline of grandfathered findings.

A baseline entry exempts one existing finding (matched by its
:meth:`repro.analysis.core.Finding.fingerprint`) from failing the run,
with a mandatory one-line justification.  New code never gets a
baseline entry — fix the finding or suppress it inline with an
explained ``# repro: noqa[RULE]``.

The file (``analysis-baseline.json`` at the repository root) is JSON so
diffs stay reviewable::

    {
      "version": 1,
      "findings": [
        {"fingerprint": "…", "rule": "RA102", "path": "src/…",
         "justification": "teacher logits are constants by design"}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .core import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "analysis-baseline.json"


@dataclass
class BaselineEntry:
    fingerprint: str
    rule: str
    path: str
    justification: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "justification": self.justification,
        }


@dataclass
class Baseline:
    """Fingerprint-keyed set of grandfathered findings."""

    entries: Dict[str, BaselineEntry] = field(default_factory=dict)
    source: Optional[Path] = None

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        raw = json.loads(Path(path).read_text())
        if raw.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {raw.get('version')!r} "
                f"in {path}")
        entries = {}
        for item in raw.get("findings", []):
            entry = BaselineEntry(
                fingerprint=item["fingerprint"],
                rule=item.get("rule", ""),
                path=item.get("path", ""),
                justification=item.get("justification", ""),
            )
            entries[entry.fingerprint] = entry
        return cls(entries=entries, source=Path(path))

    @classmethod
    def from_findings(cls, findings: Sequence[Finding],
                      justification: str = "grandfathered; fix or justify"
                      ) -> "Baseline":
        entries = {}
        for f in findings:
            fp = f.fingerprint()
            entries[fp] = BaselineEntry(
                fingerprint=fp, rule=f.rule, path=f.path,
                justification=justification)
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "tool": "repro.analysis",
            "findings": [e.as_dict() for _, e in sorted(self.entries.items())],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def stale_entries(self, matched: Sequence[str], rules_run: Sequence[str],
                      scanned: Sequence[str]) -> List[BaselineEntry]:
        """Entries whose finding no longer exists (candidates for removal).

        Only entries this run could have matched count: the entry's rule
        ran and its path lies under a scanned path (an entry for a
        deleted file there is stale).  A narrowed ``--select`` or path
        list leaves every other entry alone.
        """
        matched_set = set(matched)
        rules = set(rules_run)
        roots = [Path(p).resolve() for p in scanned]

        def in_scope(entry: BaselineEntry) -> bool:
            path = Path(entry.path).resolve()
            return entry.rule in rules and any(
                path == root or root in path.parents for root in roots)

        return [e for fp, e in sorted(self.entries.items())
                if fp not in matched_set and in_scope(e)]


def discover_baseline(paths: Sequence[Path]) -> Optional[Path]:
    """Walk up from each scanned path; first ``analysis-baseline.json`` wins."""
    for start in paths:
        current = Path(start).resolve()
        if current.is_file():
            current = current.parent
        for directory in [current, *current.parents]:
            candidate = directory / DEFAULT_BASELINE_NAME
            if candidate.is_file():
                return candidate
    return None
