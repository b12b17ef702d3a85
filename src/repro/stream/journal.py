"""Offset journal: the exactly-once commit log of a streaming run.

Extends the PR 3 span journal down to the event boundary.  A stream
run directory holds one checkpoint per commit interval
(``interval-0000.npz``, ``interval-0001.npz``, …) plus
``stream-journal.json``.  Per interval the journal records the source
*offset* consumed, cumulative counters, the sliding-window metrics, and
a SHA-256 **chain** over every trained event's sequence number — the
exactly-once witness: two runs that trained the same events in the same
order have the same chain, and a double-trained or dropped event
changes it irreversibly.

Alongside the per-interval records the journal keeps the full stream
state (histories, dedup ring, watermark, pending queue, counters) for
the latest interval and the one before it, so ``--resume`` restores
the pipeline mid-stream without replaying the whole log; if the latest
checkpoint is corrupt the run falls back one interval, and past that
it restarts from scratch (explicitly — never silently half-restored).

Write ordering matches the span journal: the interval's checkpoint is
committed *before* the journal entry that references it, so a journal
entry always points at a complete checkpoint.  The journal file itself
carries a whole-file SHA-256 trailer, so *any* flipped byte or
truncation is detected on load (see ``tests/test_stream.py``'s
byte-flip property tests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..persistence import (CheckpointError, atomic_write_bytes, seal, unseal,
                           verify_checkpoint)

PathLike = Union[str, Path]

_STREAM_JOURNAL_VERSION = 1
STREAM_JOURNAL_NAME = "stream-journal.json"

#: marks the whole-file SHA-256 trailer (:func:`repro.persistence.seal`)
_TRAILER_MARKER = b"repro-stream-journal-sha256:"

__all__ = [
    "StreamJournal",
    "IntervalRecord",
    "StreamJournalError",
    "StreamJournalIOError",
    "STREAM_JOURNAL_NAME",
    "chain_extend",
]


class StreamJournalError(ValueError):
    """The stream journal is corrupt or does not match the current run."""


class StreamJournalIOError(StreamJournalError, OSError):
    """The stream journal could not be read/written due to an IO failure
    (transient — retryable), as opposed to corruption (terminal)."""


def chain_extend(chain: str, seq: int) -> str:
    """Extend the exactly-once hash chain with one trained event."""
    return hashlib.sha256(f"{chain}:{int(seq)}".encode("ascii")).hexdigest()


@dataclass
class IntervalRecord:
    """One committed interval: everything the rollup/resume needs."""

    interval: int
    offset: int                #: source events consumed at commit time
    trained: int               #: cumulative events trained
    scored: int                #: cumulative events scored
    quarantined: int           #: cumulative events quarantined
    dropped: int               #: cumulative backpressure drops
    chain: str                 #: exactly-once witness over trained seqs
    checkpoint: str
    mode: str = "healthy"      #: pipeline mode at commit
    window_recall: Optional[float] = None
    window_ndcg: Optional[float] = None

    def to_json(self) -> dict:
        out = {
            "interval": int(self.interval),
            "offset": int(self.offset),
            "trained": int(self.trained),
            "scored": int(self.scored),
            "quarantined": int(self.quarantined),
            "dropped": int(self.dropped),
            "chain": self.chain,
            "checkpoint": self.checkpoint,
            "mode": self.mode,
        }
        if self.window_recall is not None:
            out["window_recall"] = float(self.window_recall)
            out["window_ndcg"] = float(self.window_ndcg)
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "IntervalRecord":
        record = cls(
            interval=int(payload["interval"]),
            offset=int(payload["offset"]),
            trained=int(payload["trained"]),
            scored=int(payload["scored"]),
            quarantined=int(payload["quarantined"]),
            dropped=int(payload["dropped"]),
            chain=str(payload["chain"]),
            checkpoint=str(payload["checkpoint"]),
            mode=str(payload.get("mode", "healthy")),
        )
        if "window_recall" in payload:
            record.window_recall = float(payload["window_recall"])
            record.window_ndcg = float(payload["window_ndcg"])
        return record


class StreamJournal:
    """Atomic, append-per-interval offset journal for one run directory."""

    def __init__(self, directory: PathLike, fingerprint: str,
                 dataset: str = "", model: str = "", strategy: str = ""):
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.dataset = dataset
        self.model = model
        self.strategy = strategy
        self.intervals: Dict[int, IntervalRecord] = {}
        self.incidents: List[dict] = []
        #: full stream state at the latest committed interval (and the
        #: one before it, the corruption fallback) — see state_for()
        self.state: Optional[dict] = None
        self.prev_state: Optional[dict] = None

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self.directory / STREAM_JOURNAL_NAME

    def checkpoint_path(self, interval: int) -> Path:
        return self.directory / f"interval-{interval:04d}.npz"

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def write(self) -> None:
        payload = {
            "version": _STREAM_JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "dataset": self.dataset,
            "model": self.model,
            "strategy": self.strategy,
            "intervals": {str(i): r.to_json()
                          for i, r in sorted(self.intervals.items())},
            "incidents": self.incidents,
            "state": self.state,
            "prev_state": self.prev_state,
        }
        # compact: ``indent=`` would force CPython's pure-Python JSON
        # encoder, and this runs on every commit
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        atomic_write_bytes(seal(blob, _TRAILER_MARKER), self.path,
                           kind="stream-journal")

    @classmethod
    def load(cls, directory: PathLike) -> "StreamJournal":
        path = Path(directory) / STREAM_JOURNAL_NAME
        if not path.exists():
            raise StreamJournalError(f"no stream journal at {path}")
        try:
            data = path.read_bytes()
        except OSError as err:
            raise StreamJournalIOError(
                f"stream journal {path} cannot be read: {err}") from err
        try:
            blob = unseal(data, _TRAILER_MARKER)
        except ValueError as err:
            raise StreamJournalError(f"stream journal {path} {err}") from err
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise StreamJournalError(
                f"stream journal {path} is corrupt: {err}") from err
        if payload.get("version") != _STREAM_JOURNAL_VERSION:
            raise StreamJournalError(
                f"unsupported stream journal version "
                f"{payload.get('version')!r}")
        journal = cls(
            Path(directory),
            fingerprint=str(payload.get("fingerprint", "")),
            dataset=str(payload.get("dataset", "")),
            model=str(payload.get("model", "")),
            strategy=str(payload.get("strategy", "")),
        )
        for key, entry in payload.get("intervals", {}).items():
            record = IntervalRecord.from_json(entry)
            if record.interval != int(key):
                raise StreamJournalError(
                    f"stream journal interval key {key} disagrees with "
                    f"record {record.interval}")
            journal.intervals[record.interval] = record
        journal.incidents = list(payload.get("incidents", []))
        journal.state = payload.get("state")
        journal.prev_state = payload.get("prev_state")
        return journal

    # ------------------------------------------------------------------ #
    # resume support
    # ------------------------------------------------------------------ #
    def last_restorable_interval(self) -> Optional[int]:
        """Highest interval that is fully restorable: its journal prefix
        is contiguous from 0, its checkpoint passes full verification,
        and the journal still holds its stream-state blob.

        Only the latest two intervals carry state blobs, so a corrupt
        latest checkpoint falls back exactly one interval; anything
        worse restarts the stream from scratch (events are retrained,
        never double-counted — the chain restarts with them)."""
        last_contiguous = -1
        while last_contiguous + 1 in self.intervals:
            last_contiguous += 1
        for interval in range(last_contiguous, -1, -1):
            if self.state_for(interval) is None:
                return None  # older blobs are not retained
            try:
                verify_checkpoint(self.checkpoint_path(interval))
            except CheckpointError:
                continue
            return interval
        return None

    def state_for(self, interval: int) -> Optional[dict]:
        """The stream-state blob committed at ``interval``, if retained."""
        for blob in (self.state, self.prev_state):
            if blob is not None and int(blob.get("interval", -1)) == interval:
                return blob
        return None
