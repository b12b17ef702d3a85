"""Stream events, the validation gate, and the dead-letter quarantine.

A production recommender is fed raw ``(user, item, timestamp)`` events,
not pre-cut span batches — and raw streams carry garbage: negative ids,
NaN timestamps, at-least-once redeliveries, events arriving days late.
The validation gate classifies each event *before* it can touch model
state; rejects land in a persisted dead-letter file (the quarantine)
with a structured reason, so operators can audit exactly what was
dropped and why, and nothing malformed ever trains.  Users and items
the model has never seen pass the gate: the pipeline grows them in
place.

Quarantine reasons
------------------
``malformed-user`` / ``malformed-item``
    id is not a non-negative integer
``malformed-timestamp``
    timestamp is not a finite number
``duplicate``
    the ``(user, item, ts)`` key was seen within the dedup window
``stale``
    the event is older than ``watermark - MAX_LATENESS`` (hopelessly
    late; merely late events still train)
``degraded-dropped``
    queued during a degradation spell the pipeline could not recover
    from within its attempt budget (emitted by the pipeline, not the
    gate)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

__all__ = [
    "StreamEvent",
    "validate_event",
    "events_from_split",
    "Quarantine",
    "read_quarantine",
]


@dataclass(frozen=True)
class StreamEvent:
    """One arriving interaction.

    ``seq`` is the delivery sequence number assigned by the source (the
    identity used by the exactly-once commit protocol); ``ts`` is the
    event time used for watermark/staleness decisions.
    """

    seq: int
    user: int
    item: int
    ts: float

    def key(self) -> Tuple:
        """Dedup identity: the interaction content, not the delivery."""
        return (self.user, self.item, self.ts)

    def to_json(self) -> dict:
        return {"seq": int(self.seq), "user": int(self.user),
                "item": int(self.item), "ts": float(self.ts)}

    @classmethod
    def from_json(cls, payload: dict) -> "StreamEvent":
        return cls(seq=int(payload["seq"]), user=int(payload["user"]),
                   item=int(payload["item"]), ts=float(payload["ts"]))


def _is_id(value) -> bool:
    """A well-formed id: a non-negative integer (bool is not an id)."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and int(value) >= 0)


#: events older than ``watermark - MAX_LATENESS`` (event time) are stale
MAX_LATENESS = 50.0


def validate_event(event: StreamEvent, *, watermark: float,
                   seen_keys: Set[Tuple]) -> Optional[Tuple[str, str]]:
    """Classify one event; returns ``(reason, detail)`` or None to accept.

    Checks run cheapest-first and the first failure wins, so a
    quarantine record carries one unambiguous reason.
    """
    if not _is_id(event.user):
        return "malformed-user", f"user id {event.user!r} is not a non-negative integer"
    if not _is_id(event.item):
        return "malformed-item", f"item id {event.item!r} is not a non-negative integer"
    if not isinstance(event.ts, (int, float, np.floating, np.integer)) \
            or isinstance(event.ts, bool) or not math.isfinite(float(event.ts)):
        return "malformed-timestamp", f"timestamp {event.ts!r} is not finite"
    if event.key() in seen_keys:
        return "duplicate", f"key (user={event.user}, item={event.item}, ts={event.ts}) already seen"
    if float(event.ts) < watermark - MAX_LATENESS:
        return "stale", (f"ts {event.ts} is {watermark - float(event.ts):.1f} "
                         f"behind the watermark {watermark} "
                         f"(max_lateness={MAX_LATENESS})")
    return None


def events_from_split(split, seed: int = 0) -> List[StreamEvent]:
    """Derive a deterministic chronological event stream from a split.

    The incremental spans' per-user item sequences are interleaved with
    a seeded round-robin-ish shuffle: within each span users take turns
    in seeded random order while each user's own items stay in order —
    the stream a log-structured event bus would deliver.  Timestamps
    are ``span * stride + position`` with ``stride`` the larger of 1000
    and the largest span's event count, so span boundaries are visible
    in event time, no span's events run into the next span's time range
    (which would make that span's first events stale), and staleness
    tests have room to inject lateness.
    """
    rng = np.random.default_rng(seed)
    stride = float(max([1000] + [
        sum(len(span.users[user].all_items) for user in span.user_ids())
        for span in split.spans]))
    triples: List[Tuple[int, int, float]] = []
    for t, span in enumerate(split.spans, start=1):
        pending = [(user, list(span.users[user].all_items))
                   for user in span.user_ids()
                   if span.users[user].all_items]
        position = 0
        while pending:
            idx = int(rng.integers(len(pending)))
            user, items = pending[idx]
            triples.append((user, items.pop(0), t * stride + position))
            position += 1
            if not items:
                pending.pop(idx)
    return [StreamEvent(seq=i, user=u, item=it, ts=ts)
            for i, (u, it, ts) in enumerate(triples)]


# ---------------------------------------------------------------------- #
# dead-letter quarantine file
# ---------------------------------------------------------------------- #
class Quarantine:
    """Append-only JSONL dead-letter file for rejected events.

    Each record is one line::

        {"seq": 7, "user": 3, "item": -1, "ts": 2001.0,
         "reason": "malformed-item", "detail": "...", "offset": 5}

    ``offset`` is the source offset at rejection time.  On ``--resume``
    the pipeline replays from its last committed offset, so records
    past that offset are dropped first (they will be re-evaluated); a
    torn final line from a crash mid-append is discarded the same way
    the obs trace sink recovers its tail.
    """

    def __init__(self, path: PathLike, resume_offset: Optional[int] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume_offset is not None and self.path.exists():
            kept = [rec for rec in read_quarantine(self.path)
                    if int(rec.get("offset", 0)) < resume_offset]
            blob = "".join(json.dumps(rec, sort_keys=True) + "\n"
                           for rec in kept).encode("utf-8")
            # local import: persistence imports nothing from repro.stream,
            # but keeping the dependency one-way at module load is tidier
            from ..persistence import atomic_write_bytes
            atomic_write_bytes(blob, self.path, kind="quarantine")
        self._fh = open(self.path, "ab")

    def add(self, event: StreamEvent, reason: str, detail: str,
            offset: int) -> dict:
        """Append one rejected event; flushed + fsynced immediately so a
        crash right after cannot lose the record."""
        record = dict(event.to_json())
        record["reason"] = reason
        record["detail"] = detail
        record["offset"] = int(offset)
        self._fh.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Quarantine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_quarantine(path: PathLike) -> List[dict]:
    """Parse a quarantine file, tolerating a torn final line.

    A crash mid-append can leave a partial last line; like the obs trace
    reader, everything before the final newline is intact (appends are
    flushed line-at-a-time) and the torn tail is skipped.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: List[dict] = []
    data = path.read_bytes()
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue  # torn tail from a crash mid-append
    return records
