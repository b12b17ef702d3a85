"""Span journal: the crash-recovery log of an incremental run.

A run directory holds one checkpoint per completed span
(``span-000.npz`` for pretraining, ``span-001.npz`` … for incremental
spans) plus ``journal.json``, written atomically after each span
commits.  The journal records, per span: the training time, the
checkpoint filename, the span's :class:`~repro.eval.EvalResult`
(including per-user metrics), and interest-count statistics — enough to
reconstruct the :class:`~repro.experiments.runner.RunResult` prefix of
an interrupted run without recomputing anything.

Write ordering gives crash consistency: the span's checkpoint is
committed *before* the journal entry that references it, so a journal
entry always points at a complete checkpoint.  Conversely a checkpoint
without a journal entry is simply retrained on resume.

Since version 2 the file carries a whole-file SHA-256 trailer, like
the stream journal, so a flipped byte that still parses as JSON fails
the load instead of changing a resumed run's metrics.  A version 1
file (no trailer) is refused with an error that names its version.

The journal also accumulates **incidents**: structured records of
divergence rollbacks (non-finite parameters or metrics detected after a
span) so operational failures are data, not log noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..eval import EvalResult
from ..obs import trace as obs
from ..persistence import (CheckpointError, atomic_write_bytes, seal, unseal,
                           verify_checkpoint)

PathLike = Union[str, Path]

#: version 2 seals the file with a SHA-256 trailer; version 1 had none
_JOURNAL_VERSION = 2
JOURNAL_NAME = "journal.json"
#: marks the whole-file SHA-256 trailer (:func:`repro.persistence.seal`)
_TRAILER_MARKER = b"repro-span-journal-sha256:"

__all__ = ["SpanJournal", "SpanRecord", "JournalError", "JournalIOError",
           "JOURNAL_NAME"]


class JournalError(ValueError):
    """The journal is malformed or does not match the current run."""


class JournalIOError(JournalError, OSError):
    """The journal could not be *read* due to an IO failure.

    Transient (a retry may succeed), unlike plain :class:`JournalError`
    corruption — the streaming pipeline's retry-with-backoff catches
    this (it is an ``OSError``) but treats corruption as terminal.
    """


@dataclass
class SpanRecord:
    """One completed span (0 = pretraining, which has no evaluation)."""

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


def _unsealed_version(data: bytes) -> Optional[object]:
    """The ``version`` of a journal written without a trailer (version
    1), or None when ``data`` is not a whole JSON document."""
    try:
        return json.loads(data).get("version")
    except (ValueError, AttributeError):
        return None


class SpanJournal:
    """Atomic, append-per-span journal for one run directory."""

    def __init__(self, directory: PathLike, fingerprint: str,
                 dataset: str = "", model: str = "", strategy: str = ""):
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.dataset = dataset
        self.model = model
        self.strategy = strategy
        self.spans: Dict[int, SpanRecord] = {}
        self.incidents: List[dict] = []

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def checkpoint_path(self, span: int) -> Path:
        return self.directory / f"span-{span:03d}.npz"

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def write(self) -> None:
        payload = {
            "version": _JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "dataset": self.dataset,
            "model": self.model,
            "strategy": self.strategy,
            "spans": {str(s): r.to_json() for s, r in sorted(self.spans.items())},
            "incidents": self.incidents,
        }
        # the stream journal's compact encoding (repro.stream.journal)
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        atomic_write_bytes(seal(blob, _TRAILER_MARKER), self.path,
                           kind="journal")

    @classmethod
    def load(cls, directory: PathLike) -> "SpanJournal":
        path = Path(directory) / JOURNAL_NAME
        if not path.exists():
            raise JournalError(f"no journal at {path}")
        try:
            data = path.read_bytes()
        except OSError as err:
            raise JournalIOError(
                f"journal {path} cannot be read: {err}") from err
        try:
            blob = unseal(data, _TRAILER_MARKER)
        except ValueError as err:
            unsealed = _unsealed_version(data)
            if unsealed not in (None, _JOURNAL_VERSION):
                raise JournalError(
                    f"unsupported journal version {unsealed!r} at {path}: "
                    f"version {_JOURNAL_VERSION} is sealed with a SHA-256 "
                    f"trailer; start the run afresh") from err
            raise JournalError(f"journal {path} {err}") from err
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise JournalError(f"journal {path} is corrupt: {err}") from err
        if payload.get("version") != _JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {payload.get('version')!r}")
        journal = cls(
            Path(directory),
            fingerprint=str(payload.get("fingerprint", "")),
            dataset=str(payload.get("dataset", "")),
            model=str(payload.get("model", "")),
            strategy=str(payload.get("strategy", "")),
        )
        for key, entry in payload.get("spans", {}).items():
            record = SpanRecord.from_json(entry)
            if record.span != int(key):
                raise JournalError(
                    f"journal span key {key} disagrees with record "
                    f"{record.span}")
            journal.spans[record.span] = record
        journal.incidents = list(payload.get("incidents", []))
        return journal

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_span(self, span: int, train_time: float,
                    result: Optional[EvalResult] = None,
                    interest_mean: Optional[float] = None,
                    counts: Optional[Dict[int, int]] = None,
                    rolled_back: bool = False,
                    extract_time: float = 0.0,
                    eval_time: float = 0.0) -> SpanRecord:
        record = SpanRecord(
            span=span, train_time=float(train_time),
            checkpoint=self.checkpoint_path(span).name,
            rolled_back=rolled_back,
            extract_time=float(extract_time),
            eval_time=float(eval_time),
        )
        if result is not None:
            record.hr = result.hr
            record.ndcg = result.ndcg
            record.num_cases = result.num_cases
            record.per_user = dict(result.per_user)
            record.interest_mean = interest_mean
            record.counts = dict(counts or {})
        self.spans[span] = record
        self.write()
        obs.counter("journal.spans_committed")
        obs.event("journal.span_committed", span_id=span,
                  rolled_back=rolled_back, checkpoint=record.checkpoint)
        return record

    def record_incident(self, span: int, kind: str, detail: object,
                        action: str) -> dict:
        incident = {"span": span, "kind": kind, "detail": detail,
                    "action": action}
        self.incidents.append(incident)
        self.write()
        obs.counter("journal.incidents")
        obs.event("journal.incident", span_id=span, incident=kind,
                  action=action)
        return incident

    # ------------------------------------------------------------------ #
    # resume support
    # ------------------------------------------------------------------ #
    def last_restorable_span(self) -> Optional[int]:
        """Highest span whose journal prefix is contiguous from 0 and
        whose checkpoint passes full verification.

        A corrupt later checkpoint falls back to the newest earlier one
        that verifies; spans past the restore point are retrained."""
        last_contiguous = -1
        while last_contiguous + 1 in self.spans:
            last_contiguous += 1
        for span in range(last_contiguous, -1, -1):
            try:
                verify_checkpoint(self.checkpoint_path(span))
            except CheckpointError:
                continue
            return span
        return None
