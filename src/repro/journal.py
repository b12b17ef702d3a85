"""Run journals: the sealed commit log of a journaled span or stream run.

A journaled run directory holds one checkpoint per commit plus one
journal file, rewritten atomically after every commit.  A span run
(:func:`repro.experiments.run_strategy`) commits once per time span and
keeps :class:`~repro.experiments.journal.SpanRecord` s in
``journal.json``; a stream run (:func:`repro.stream.run_stream`) commits
once per interval of events and keeps
:class:`~repro.stream.journal.IntervalRecord` s in
``stream-journal.json``, together with the full stream state at the
latest two commits.  One :class:`Journal` class serves both; the record
type's :class:`Layout` names the file, its version and trailer, and each
commit's checkpoint.

Write ordering gives crash consistency: a commit's checkpoint lands
*before* the journal entry that references it, so an entry always points
at a complete checkpoint, and a checkpoint without an entry is simply
recomputed on resume.  Every write is compact JSON sealed with a
whole-file SHA-256 trailer (:func:`repro.persistence.seal`), so a flipped
byte or a truncation fails the load instead of changing a resumed run.

The journal also keeps **incidents**: structured records of divergence
rollbacks, degradations and recoveries, so operational failures are
data, not log noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Union

from .persistence import (CheckpointError, atomic_write_bytes, seal, unseal,
                          verify_checkpoint)

PathLike = Union[str, Path]
#: runs a journal write, e.g. with retries on transient IO errors
Retry = Callable[[Callable[[], None]], None]

__all__ = ["Journal", "JournalError", "JournalIOError", "Layout"]


class JournalError(ValueError):
    """The journal is malformed or does not match the current run."""


class JournalIOError(JournalError, OSError):
    """The journal could not be *read* due to an IO failure.

    Transient (a retry may succeed), unlike plain :class:`JournalError`
    corruption: the stream's retry-with-backoff catches this (it is an
    ``OSError``) but treats corruption as terminal.
    """


class Layout(NamedTuple):
    """Where and how one record type's journal is stored."""

    #: file name in the run directory; its stem names the journal in
    #: errors and in the ``io-write`` fault probe's ``kind``
    name: str
    version: int
    #: marks the whole-file SHA-256 trailer
    marker: bytes
    #: the records' index field (``span``, ``interval``); the file keeps
    #: the records under its plural
    key: str
    #: checkpoint file name, formatted with a record's index
    checkpoint: str
    #: whether the journal carries the latest two stream-state blobs
    states: bool = False

    @property
    def label(self) -> str:
        """How errors name the journal: ``journal``, ``stream journal``."""
        return Path(self.name).stem.replace("-", " ")


def _write_once(write: Callable[[], None]) -> None:
    write()


def _unsealed_version(data: bytes) -> Optional[object]:
    """The ``version`` of a journal written without a trailer, or None
    when ``data`` is not a whole JSON document."""
    try:
        return json.loads(data).get("version")
    except (ValueError, AttributeError):
        return None


class Journal:
    """The sealed commit log of one run directory, for one record type.

    ``record_type.layout`` says how the journal is stored; the record
    type supplies ``to_json``/``from_json``.
    """

    def __init__(self, record_type: type, directory: PathLike,
                 fingerprint: str, dataset: str = "", model: str = "",
                 strategy: str = ""):
        self.layout: Layout = record_type.layout
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.dataset = dataset
        self.model = model
        self.strategy = strategy
        #: committed records by index (span or interval)
        self.records: Dict[int, Any] = {}
        self.incidents: List[dict] = []
        #: a stream journal's full stream state at the latest committed
        #: interval and at the one before it, the corruption fallback
        self.state: Optional[dict] = None
        self.prev_state: Optional[dict] = None

    # a span run reads its records as ``spans``, a stream run as ``intervals``
    @property
    def spans(self) -> Dict[int, Any]:
        return self.records

    intervals = spans

    @property
    def path(self) -> Path:
        return self.directory / self.layout.name

    def checkpoint_path(self, index: int) -> Path:
        """Where commit ``index``'s checkpoint lives."""
        return self.directory / self.layout.checkpoint.format(index)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def write(self) -> None:
        """Seal the journal and atomically replace its file."""
        layout = self.layout
        payload = {
            "version": layout.version,
            "fingerprint": self.fingerprint,
            "dataset": self.dataset,
            "model": self.model,
            "strategy": self.strategy,
            layout.key + "s": {str(i): r.to_json()
                               for i, r in sorted(self.records.items())},
            "incidents": self.incidents,
        }
        if layout.states:
            payload["state"] = self.state
            payload["prev_state"] = self.prev_state
        # compact: ``indent=`` would force CPython's pure-Python JSON
        # encoder, and a stream writes its journal at every commit
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        atomic_write_bytes(seal(blob, layout.marker), self.path,
                           kind=Path(layout.name).stem)

    @classmethod
    def load(cls, record_type: type, directory: PathLike,
             fingerprint: Optional[str] = None) -> "Journal":
        """Read and verify ``record_type``'s journal in ``directory``.

        With ``fingerprint`` (:func:`repro.persistence.run_fingerprint`),
        a journal that another strategy, model or config wrote is refused.
        """
        layout: Layout = record_type.layout
        label = layout.label
        path = Path(directory) / layout.name
        if not path.exists():
            raise JournalError(f"no {label} at {path}")
        try:
            data = path.read_bytes()
        except OSError as err:
            raise JournalIOError(
                f"{label} {path} cannot be read: {err}") from err
        try:
            blob = unseal(data, layout.marker)
        except ValueError as err:
            unsealed = _unsealed_version(data)
            if unsealed not in (None, layout.version):
                raise JournalError(
                    f"unsupported {label} version {unsealed!r} at {path}: "
                    f"version {layout.version} is sealed with a SHA-256 "
                    f"trailer; start the run afresh") from err
            raise JournalError(f"{label} {path} {err}") from err
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise JournalError(f"{label} {path} is corrupt: {err}") from err
        if payload.get("version") != layout.version:
            raise JournalError(
                f"unsupported {label} version {payload.get('version')!r}")
        journal = cls(
            record_type, directory,
            fingerprint=str(payload.get("fingerprint", "")),
            dataset=str(payload.get("dataset", "")),
            model=str(payload.get("model", "")),
            strategy=str(payload.get("strategy", "")),
        )
        if fingerprint is not None and journal.fingerprint != fingerprint:
            raise JournalError(
                f"{label} at {directory} was written by a different run "
                f"(fingerprint {journal.fingerprint} != {fingerprint}); "
                f"refusing to resume")
        for key, entry in payload.get(layout.key + "s", {}).items():
            record = record_type.from_json(entry)
            index = getattr(record, layout.key)
            if index != int(key):
                raise JournalError(
                    f"{label} {layout.key} key {key} disagrees with record "
                    f"{index}")
            journal.records[index] = record
        journal.incidents = list(payload.get("incidents", []))
        journal.state = payload.get("state")
        journal.prev_state = payload.get("prev_state")
        return journal

    # ------------------------------------------------------------------ #
    # recording: each mutates the journal once, then writes it; ``retry``
    # runs only the atomic, idempotent write (a stream retries it with
    # backoff, and retrying the mutation would shift the state blobs twice)
    # ------------------------------------------------------------------ #
    def append(self, record: Any, state: Optional[dict] = None,
               retry: Optional[Retry] = None) -> None:
        """Commit ``record``; a stream journal also keeps ``state``, the
        stream state at this commit, and the state before it."""
        self.records[getattr(record, self.layout.key)] = record
        if self.layout.states:
            self.prev_state, self.state = self.state, state
        (retry or _write_once)(self.write)

    def record_incident(self, index: int, kind: str, detail: object,
                        action: str, retry: Optional[Retry] = None) -> dict:
        """Record an incident at commit ``index`` and write the journal."""
        incident = {self.layout.key: index, "kind": kind, "detail": detail,
                    "action": action}
        self.incidents.append(incident)
        (retry or _write_once)(self.write)
        return incident

    # ------------------------------------------------------------------ #
    # resume support
    # ------------------------------------------------------------------ #
    def last_restorable(self) -> Optional[int]:
        """Highest index whose journal prefix is contiguous from 0 and
        whose checkpoint passes full verification.

        A corrupt later checkpoint falls back to the newest earlier one
        that verifies.  A stream journal also needs the index's state
        blob, and it keeps only the latest two: past them the stream
        restarts from scratch (events are retrained, never double-counted;
        the chain restarts with them)."""
        last_contiguous = -1
        while last_contiguous + 1 in self.records:
            last_contiguous += 1
        for index in range(last_contiguous, -1, -1):
            if self.layout.states and self.state_for(index) is None:
                return None  # older blobs are not retained
            try:
                verify_checkpoint(self.checkpoint_path(index))
            except CheckpointError:
                continue
            return index
        return None

    # a span run names the restore point by its span
    last_restorable_span = last_restorable

    def state_for(self, index: int) -> Optional[dict]:
        """The stream-state blob committed at ``index``, if retained."""
        for blob in (self.state, self.prev_state):
            if (blob is not None
                    and int(blob.get(self.layout.key, -1)) == index):
                return blob
        return None
