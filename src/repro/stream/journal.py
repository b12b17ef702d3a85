"""Offset journal records: the exactly-once commit log of a stream run.

Extends the span journal down to the event boundary.  A stream run
directory holds one checkpoint per commit interval (``interval-0000.npz``,
``interval-0001.npz``, …) plus ``stream-journal.json``, a
:class:`repro.journal.Journal` of :class:`IntervalRecord` s.  Per interval
the journal records the source *offset* consumed, cumulative counters, the
sliding-window metrics, and a SHA-256 **chain** over every trained event's
sequence number: the exactly-once witness.  Two runs that trained the same
events in the same order have the same chain, and a double-trained or
dropped event changes it irreversibly.

Alongside the per-interval records the journal keeps the full stream
state (histories, dedup ring, watermark, pending queue, counters) for
the latest interval and the one before it, so ``--resume`` restores
the pipeline mid-stream without replaying the whole log; if the latest
checkpoint is corrupt the run falls back one interval, and past that
it restarts from scratch (explicitly, never silently half-restored).
Like every journal write, the file is sealed with a whole-file SHA-256
trailer, so *any* flipped byte or truncation is detected on load (see
``tests/test_stream.py``'s byte-flip property tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar, Optional

from ..journal import Journal, Layout

__all__ = [
    "IntervalRecord",
    "STREAM_JOURNAL_NAME",
    "chain_extend",
]

#: the one journal class; the name stays importable here because
#: benchmarks/e2e/layers.py times the stream's journal writes by
#: patching ``StreamJournal.write``
StreamJournal = Journal


def chain_extend(chain: str, seq: int) -> str:
    """Extend the exactly-once hash chain with one trained event."""
    return hashlib.sha256(f"{chain}:{int(seq)}".encode("ascii")).hexdigest()


@dataclass
class IntervalRecord:
    """One committed interval: everything the rollup/resume needs."""

    layout: ClassVar[Layout] = Layout(
        "stream-journal.json", 1, b"repro-stream-journal-sha256:",
        "interval", "interval-{:04d}.npz", states=True)

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


STREAM_JOURNAL_NAME = IntervalRecord.layout.name
