"""The span journal's record: one committed span of an incremental run.

A journaled run (``run_strategy(..., checkpoint_dir=DIR)``) keeps one
checkpoint per completed span (``span-000.npz`` for pretraining,
``span-001.npz`` … for incremental spans) and a
:class:`repro.journal.Journal` of :class:`SpanRecord` s in
``journal.json``.  A record holds the span's training time, its
checkpoint's file name, its :class:`~repro.eval.EvalResult` (including
per-user metrics) and interest-count statistics: enough to reconstruct
the :class:`~repro.experiments.runner.RunResult` prefix of an
interrupted run without recomputing anything.

Since version 2 the file carries a whole-file SHA-256 trailer, like the
stream journal, so a flipped byte that still parses as JSON fails the
load instead of changing a resumed run's metrics.  A version 1 file (no
trailer) is refused with an error that names its version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from ..eval import EvalResult
from ..journal import Layout

__all__ = ["SpanRecord", "JOURNAL_NAME"]


@dataclass
class SpanRecord:
    """One completed span (0 = pretraining, which has no evaluation)."""

    #: version 2 seals the file with a SHA-256 trailer; version 1 had none
    layout: ClassVar[Layout] = Layout(
        "journal.json", 2, b"repro-span-journal-sha256:", "span",
        "span-{:03d}.npz")

    span: int
    train_time: float
    checkpoint: str
    hr: Optional[float] = None
    ndcg: Optional[float] = None
    num_cases: Optional[int] = None
    per_user: Dict[int, tuple] = field(default_factory=dict)
    interest_mean: Optional[float] = None
    counts: Dict[int, int] = field(default_factory=dict)
    rolled_back: bool = False
    #: wall-clock of the span's snapshot re-extraction / evaluation, so a
    #: resumed run reports honest cumulative timings (0.0 in old journals)
    extract_time: float = 0.0
    eval_time: float = 0.0

    def eval_result(self) -> EvalResult:
        return EvalResult(
            hr=float(self.hr), ndcg=float(self.ndcg),
            num_cases=int(self.num_cases),
            per_user={int(u): tuple(v) for u, v in self.per_user.items()},
        )

    def to_json(self) -> dict:
        out = {
            "span": self.span,
            "train_time": self.train_time,
            "extract_time": self.extract_time,
            "eval_time": self.eval_time,
            "checkpoint": self.checkpoint,
            "rolled_back": self.rolled_back,
        }
        if self.hr is not None:
            out["eval"] = {
                "hr": self.hr, "ndcg": self.ndcg,
                "num_cases": self.num_cases,
                "per_user": {str(u): list(v)
                             for u, v in self.per_user.items()},
            }
            out["interest_mean"] = self.interest_mean
            out["counts"] = {str(u): c for u, c in self.counts.items()}
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "SpanRecord":
        record = cls(
            span=int(payload["span"]),
            train_time=float(payload["train_time"]),
            checkpoint=str(payload["checkpoint"]),
            rolled_back=bool(payload.get("rolled_back", False)),
            extract_time=float(payload.get("extract_time", 0.0)),
            eval_time=float(payload.get("eval_time", 0.0)),
        )
        ev = payload.get("eval")
        if ev is not None:
            record.hr = float(ev["hr"])
            record.ndcg = float(ev["ndcg"])
            record.num_cases = int(ev["num_cases"])
            record.per_user = {int(u): tuple(v)
                               for u, v in ev.get("per_user", {}).items()}
            record.interest_mean = payload.get("interest_mean")
            record.counts = {int(u): int(c)
                             for u, c in payload.get("counts", {}).items()}
        return record


JOURNAL_NAME = SpanRecord.layout.name
