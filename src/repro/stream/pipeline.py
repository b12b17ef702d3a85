"""Fault-tolerant prequential (test-then-learn) streaming driver.

The pipeline consumes a chronological event stream and, per event:

1. **gate** — validate against the dedup ring / watermark / catalog;
   rejects land in the dead-letter quarantine with a structured reason
   (:mod:`repro.stream.events`);
2. **score** — rank the event's item under the user's *current* stored
   interests (test-then-learn: the score is an honest out-of-sample
   measurement, taken before the event can influence the model) and
   fold hit@k / NDCG@k into a sliding window;
3. **learn** — one incremental training step on the event: the span
   trainer's per-user step with the event's item as its one target
   (skipped in degraded mode: the event is queued in the bounded
   ingest buffer);
4. **commit** — every ``checkpoint_every`` source events the model
   checkpoint and the offset journal land atomically
   (checkpoint-before-journal ordering, seeded retry-with-backoff on
   transient IO errors), making crash-at-any-event-boundary +
   ``resume=True`` metric-identical and exactly-once: the SHA-256
   chain over trained event sequence numbers proves no event was lost
   or double-trained.

Degradation state machine (evaluated only at commit boundaries, so the
demote/recover decisions replay identically on resume)::

    HEALTHY --(non-finite params/interests)--> rollback + DEGRADED
    HEALTHY --(window recall < floor)--------> DEGRADED (no rollback)
    DEGRADED: score-only; serve stale interests; queue events in the
              bounded buffer (overflow -> backpressure drops)
    DEGRADED --(queued events retrain cleanly)--> HEALTHY  (recovered)
    DEGRADED --(attempt budget exhausted)-------> quarantine the queue
              as ``degraded-dropped`` and resume HEALTHY from the last
              clean commit

Mid-stream cold start: events may reference users and items the model
has never seen; user states are created and the item-embedding table /
negative sampler grow in place (optimizer moment rows follow — see
:meth:`repro.nn.optim.Adam._sync_grown_rows`), drawing from the
checkpointed model RNG so growth replays identically on resume.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults
from ..eval.metrics import hit_at_k, ndcg_at_k, rank_of_target
from ..incremental.strategy import IncrementalStrategy, UserPayload
from ..journal import Journal
# the learn step clips inside IncrementalStrategy._step; clip_grad_norm
# stays importable here because benchmarks/e2e/layers.py patches this
# name when it times the stream
from ..nn import Adam, clip_grad_norm  # noqa: F401
from ..obs import prof as _prof
from ..obs import trace as obs
from ..obs.metrics import LATENCY_EDGES
from ..persistence import load_checkpoint, run_fingerprint, save_checkpoint
from .events import (
    GateConfig,
    Quarantine,
    StreamEvent,
    events_from_split,
    validate_event,
)
from .journal import IntervalRecord, chain_extend

PathLike = Union[str, Path]

MODE_HEALTHY = "healthy"
MODE_DEGRADED = "degraded"

QUARANTINE_NAME = "quarantine.jsonl"

__all__ = [
    "StreamConfig",
    "StreamResult",
    "run_stream",
    "MODE_HEALTHY",
    "MODE_DEGRADED",
    "QUARANTINE_NAME",
]


@dataclass
class StreamConfig:
    """Streaming pipeline policy knobs."""

    #: source events per commit interval (checkpoint + journal write)
    checkpoint_every: int = 32
    #: sliding-window length (events) for incremental recall/NDCG
    window: int = 64
    #: cutoff for the per-event hit/NDCG measurement
    k: int = 20
    #: per-user history tail used for interest extraction per step
    max_history: int = 50
    #: dedup ring size (distinct recent event keys remembered)
    dedup_window: int = 512
    #: events older than ``watermark - max_lateness`` are stale
    max_lateness: float = 50.0
    #: bounded ingest buffer capacity while degraded (backpressure)
    buffer_size: int = 256
    #: demote to score-only when window recall drops below this
    #: (0.0 disables the floor; the non-finite guard is always on)
    min_window_recall: float = 0.0
    #: scored events before the recall floor arms (and re-arms after a
    #: recovery) — a cold window must not trip the guard
    warmup: int = 64
    #: degraded-spell recovery attempts before the queue is dropped
    max_recovery_attempts: int = 3
    #: transient-IO retries per commit write (after the first try)
    max_retries: int = 4
    #: base backoff delay in seconds; attempt ``a`` sleeps
    #: ``base * 2^a * jitter`` with seeded jitter in [0.5, 1.0)
    backoff_base: float = 0.05
    backoff_seed: int = 0
    #: create user states / grow the item table for unseen ids; when
    #: off such events are quarantined (``unknown-user``/``unknown-item``)
    grow_users: bool = True
    grow_items: bool = True


@dataclass
class StreamResult:
    """Outcome of one streaming run (see also the per-interval records)."""

    dataset: str
    model: str
    strategy: str
    events: int                      #: source events consumed
    scored: int
    trained: int
    quarantined: Dict[str, int]      #: reason -> count
    dropped: int                     #: backpressure drops
    backoffs: int
    degraded_spells: int
    recoveries: int
    users_created: int
    items_grown: int
    window_recall: Optional[float]
    window_ndcg: Optional[float]
    chain: str                       #: exactly-once witness
    mode: str
    intervals: List[IntervalRecord] = field(default_factory=list)
    resumed_from: Optional[int] = None
    directory: Optional[Path] = None

    @property
    def quarantined_total(self) -> int:
        return sum(self.quarantined.values())

    def summary(self) -> dict:
        """Flat JSON-friendly rollup (CLI output, benchmarks)."""
        return {
            "dataset": self.dataset,
            "model": self.model,
            "strategy": self.strategy,
            "events": self.events,
            "scored": self.scored,
            "trained": self.trained,
            "quarantined": dict(sorted(self.quarantined.items())),
            "quarantined_total": self.quarantined_total,
            "dropped": self.dropped,
            "backoffs": self.backoffs,
            "degraded_spells": self.degraded_spells,
            "recoveries": self.recoveries,
            "users_created": self.users_created,
            "items_grown": self.items_grown,
            "window_recall": self.window_recall,
            "window_ndcg": self.window_ndcg,
            "mode": self.mode,
            "intervals": len(self.intervals),
            "chain": self.chain[:16],
        }


class _Pipeline:
    """One streaming run's mutable state + the driver loop."""

    def __init__(self, strategy: IncrementalStrategy,
                 events: Sequence[StreamEvent], config: StreamConfig,
                 directory: Optional[Path], resume: bool,
                 dataset_name: str, model_name: str):
        self.strategy = strategy
        self.events = list(events)
        self.config = config
        self.directory = directory
        self.resume = resume
        self.dataset_name = dataset_name
        self.model_name = model_name
        self.gate = GateConfig(
            max_lateness=config.max_lateness,
            allow_new_users=config.grow_users,
            allow_new_items=config.grow_items,
        )

        self.journal: Optional[Journal] = None
        self.quarantine: Optional[Quarantine] = None
        self.resumed_from: Optional[int] = None

        # ---- stream state (everything here round-trips the journal) ----
        self.offset = 0                 # source events consumed
        self.interval = 0               # next interval index to commit
        self.watermark = float("-inf")
        self.chain = ""
        self.mode = MODE_HEALTHY
        self.attempts = 0
        self.window: deque = deque(maxlen=config.window)
        self._dedup: "OrderedDict[Tuple, None]" = OrderedDict()
        self.histories: Dict[int, List[int]] = {}
        self.pending: List[dict] = []   # bounded ingest buffer (degraded)
        self.counters: Dict[str, int] = {
            "scored": 0, "trained": 0, "queued": 0, "dropped": 0,
            "backoffs": 0, "degraded_spells": 0, "recoveries": 0,
            "users_created": 0, "items_grown": 0, "flood_injected": 0,
            "skipped_no_history": 0, "nonfinite_skips": 0,
        }
        self.quarantined_by_reason: Dict[str, int] = {}
        self._floor_arm = config.warmup

        # ---- per-interval accumulators (reset at each commit) ----------
        self._committed_chain = ""
        self._committed_trained = 0
        self._interval_events: List[dict] = []
        self._last_commit_offset = 0
        self._records: List[IntervalRecord] = []
        self._opt: Optional[Adam] = None

        self._delayed: List[Tuple[int, StreamEvent]] = []  # reorder faults
        self._backoff_rng = np.random.default_rng(config.backoff_seed)

    # ------------------------------------------------------------------ #
    # journal state round-trip
    # ------------------------------------------------------------------ #
    def _state_blob(self) -> dict:
        return {
            "interval": int(self.interval),
            "offset": int(self.offset),
            "watermark": (None if self.watermark == float("-inf")
                          else float(self.watermark)),
            "chain": self.chain,
            "mode": self.mode,
            "attempts": int(self.attempts),
            "floor_arm": int(self._floor_arm),
            "num_items": int(self.strategy.model.num_items),
            "window": [[float(h), float(n)] for h, n in self.window],
            "dedup": [[int(u), int(it), float(ts)]
                      for (u, it, ts) in self._dedup],
            "histories": {str(u): [int(i) for i in h]
                          for u, h in sorted(self.histories.items())},
            "pending": list(self.pending),
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
            "quarantined": {k: int(v) for k, v in
                            sorted(self.quarantined_by_reason.items())},
        }

    def _restore_state(self, blob: dict) -> None:
        self.offset = int(blob["offset"])
        self.watermark = (float("-inf") if blob["watermark"] is None
                          else float(blob["watermark"]))
        self.chain = str(blob["chain"])
        self.mode = str(blob["mode"])
        self.attempts = int(blob["attempts"])
        self._floor_arm = int(blob["floor_arm"])
        self.window = deque(
            [(float(h), float(n)) for h, n in blob["window"]],
            maxlen=self.config.window)
        self._dedup = OrderedDict(
            ((int(u), int(it), float(ts)), None)
            for u, it, ts in blob["dedup"])
        self.histories = {int(u): [int(i) for i in h]
                          for u, h in blob["histories"].items()}
        self.pending = [dict(p) for p in blob["pending"]]
        self.counters.update({k: int(v)
                              for k, v in blob["counters"].items()})
        self.quarantined_by_reason = {
            k: int(v) for k, v in blob.get("quarantined", {}).items()}
        self._committed_chain = self.chain
        self._committed_trained = self.counters["trained"]

    # ------------------------------------------------------------------ #
    # preparation / resume
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        if self.directory is not None and self.resume:
            journal = Journal.load(IntervalRecord, self.directory,
                                   run_fingerprint(self.strategy))
            restored = journal.last_restorable()
            if restored is not None:
                self._restore_run(journal, restored)
                return
            obs.event("stream.restart", reason="no-restorable-interval")
        self._fresh_run()

    def _restore_run(self, journal: Journal, restored: int) -> None:
        blob = journal.state_for(restored)
        model = self.strategy.model
        # pre-grow to the journaled catalog so the checkpoint's (grown)
        # embedding table restores shape-exact; rows are overwritten by
        # the load, so no RNG is consumed here
        model.grow_items(int(blob["num_items"]), rng=None)
        self.strategy.sampler.grow(model.num_items)
        load_checkpoint(self.strategy,
                        journal.checkpoint_path(restored),
                        create_missing=True)
        self._restore_state(blob)
        # drop journal entries past the restore point (a fallback from a
        # corrupt latest checkpoint): they will be re-committed
        for stale in [i for i in journal.intervals if i > restored]:
            del journal.intervals[stale]
        if journal.state is not blob:
            journal.state, journal.prev_state = blob, None
        self.journal = journal
        self._commit_with_retry(journal.write)
        self.interval = restored + 1
        self._last_commit_offset = self.offset
        self._records = [journal.intervals[i]
                         for i in sorted(journal.intervals)]
        self.resumed_from = restored
        self.quarantine = Quarantine(self.directory / QUARANTINE_NAME,
                                     resume_offset=self.offset)
        obs.event("stream.resumed", interval=restored, offset=self.offset,
                  mode=self.mode)

    def _fresh_run(self) -> None:
        if self.directory is not None:
            self.journal = Journal(
                IntervalRecord, self.directory,
                fingerprint=run_fingerprint(self.strategy),
                dataset=self.dataset_name, model=self.model_name,
                strategy=self.strategy.name)
            # a fresh run in a reused directory replaces the old journal
            # and quarantine before pretraining, so a crash before its
            # first commit restarts on resume instead of restoring the
            # older run
            self._commit_with_retry(self.journal.write)
            self.quarantine = Quarantine(self.directory / QUARANTINE_NAME,
                                         resume_offset=0)
        with obs.span("stream.pretrain"):
            self.strategy.pretrain()
        self._boundary()  # interval 0: the pretrained baseline at offset 0

    # ------------------------------------------------------------------ #
    # driver loop
    # ------------------------------------------------------------------ #
    def run(self) -> StreamResult:
        self._prepare()
        total = len(self.events)
        with obs.span("stream.run", events=total, start_offset=self.offset):
            while self.offset < total:
                for late in self._due_delayed():
                    self._process(late)
                event = self.events[self.offset]
                self.offset += 1
                mods = faults.fire("stream-event", seq=event.seq,
                                   user=event.user, item=event.item,
                                   offset=self.offset - 1)
                event, followers = self._apply_delivery_mods(event, mods)
                if event is not None:
                    self._process(event)
                for injected in followers:
                    self._process(injected)
                if (self.offset - self._last_commit_offset
                        >= self.config.checkpoint_every):
                    self._boundary()
            for late in self._due_delayed(drain=True):
                self._process(late)
            if (self.offset > self._last_commit_offset
                    or self.mode == MODE_DEGRADED or self.pending):
                self._boundary()
        if self.quarantine is not None:
            self.quarantine.close()
        return self._result()

    def _due_delayed(self, drain: bool = False) -> List[StreamEvent]:
        """Reordered events whose hold-back has elapsed, in release order."""
        if not self._delayed:
            return []
        due = [(rel, evt) for rel, evt in self._delayed
               if drain or rel <= self.offset]
        self._delayed = [(rel, evt) for rel, evt in self._delayed
                         if not (drain or rel <= self.offset)]
        return [evt for _, evt in due]

    def _apply_delivery_mods(self, event: StreamEvent, mods: dict):
        """Apply delivery-fault modifiers from the ``stream-event`` probe.

        Returns ``(event_or_None, follower_events)`` — ``None`` when the
        event was held back (reorder).
        """
        followers: List[StreamEvent] = []
        if not mods:
            return event, followers
        malform = mods.get("malform")
        if malform == "user":
            event = StreamEvent(event.seq, -1, event.item, event.ts)
        elif malform == "item":
            event = StreamEvent(event.seq, event.user, -1, event.ts)
        elif malform == "ts":
            event = StreamEvent(event.seq, event.user, event.item,
                                float("nan"))
        if mods.get("duplicate"):
            followers.append(event)
        flood = int(mods.get("flood", 0))
        for burst_idx in range(flood):
            n = self.counters["flood_injected"]
            self.counters["flood_injected"] += 1
            followers.append(StreamEvent(
                seq=2_000_000 + n,
                user=1_000_000 + n,          # each flood event: a new user
                item=int(self.strategy.model.num_items) + burst_idx,  # …and a new item
                ts=(0.0 if self.watermark == float("-inf")
                    else self.watermark) + 1.0,
            ))
        delay = int(mods.get("reorder", 0))
        if delay > 0:
            self._delayed.append((self.offset + delay, event))
            return None, followers
        return event, followers

    # ------------------------------------------------------------------ #
    # per-event path: gate -> score -> learn
    # ------------------------------------------------------------------ #
    def _process(self, event: StreamEvent) -> None:
        rejection = validate_event(
            event, watermark=self.watermark, seen_keys=self._dedup,
            num_items=self.strategy.model.num_items,
            known_users=self.strategy.states.keys(), gate=self.gate)
        if rejection is not None:
            self._quarantine(event, *rejection)
        else:
            self._accept(event)
        faults.fire("stream-event-boundary", seq=event.seq,
                    offset=self.offset)

    def _quarantine(self, event: StreamEvent, reason: str,
                    detail: str) -> None:
        if self.quarantine is not None:
            self.quarantine.add(event, reason, detail,
                                offset=max(self.offset - 1, 0))
        self.quarantined_by_reason[reason] = (
            self.quarantined_by_reason.get(reason, 0) + 1)
        obs.counter("stream.quarantined_events")
        obs.event("stream.quarantined", seq=event.seq, reason=reason,
                  user=(int(event.user) if isinstance(event.user, (int, np.integer)) else None),
                  item=(int(event.item) if isinstance(event.item, (int, np.integer)) else None))

    def _accept(self, event: StreamEvent) -> None:
        user, item = int(event.user), int(event.item)
        self.watermark = max(self.watermark, float(event.ts))
        self._remember_key(event.key())
        self._ensure_user(user)
        self._ensure_item(item)

        score_start = time.perf_counter()
        with _prof.phase("score"):
            hit, ndcg = self._score(user, item)
        self.window.append((hit, ndcg))
        self.counters["scored"] += 1
        if obs.enabled():
            obs.counter("stream.scored_events")
            obs.observe("stream.score_seconds",
                        time.perf_counter() - score_start,
                        edges=LATENCY_EDGES)
            obs.observe("stream.event_ndcg", ndcg)
            recall = float(np.mean([h for h, _ in self.window]))
            obs.gauge("stream.window_recall", recall)

        history = list(self.histories.get(user, []))
        entry = {"seq": int(event.seq), "user": user, "item": item,
                 "ts": float(event.ts), "history": history}
        if self.mode == MODE_HEALTHY:
            learn_start = time.perf_counter()
            with _prof.phase("learn"):
                took_step = self._train_one(user, item, history)
            if took_step:
                if obs.enabled():
                    obs.observe("stream.learn_seconds",
                                time.perf_counter() - learn_start,
                                edges=LATENCY_EDGES)
                self.chain = chain_extend(self.chain, event.seq)
                self.counters["trained"] += 1
                self._interval_events.append(entry)
            faults.fire("stream-trained", seq=event.seq,
                        strategy=self.strategy)
        else:
            self.counters["queued"] += 1
            self._enqueue_pending(entry)

        tail = self.histories.setdefault(user, [])
        tail.append(item)
        if len(tail) > self.config.max_history:
            del tail[:len(tail) - self.config.max_history]

    def _remember_key(self, key: Tuple) -> None:
        self._dedup[key] = None
        while len(self._dedup) > self.config.dedup_window:
            self._dedup.popitem(last=False)

    def _ensure_user(self, user: int) -> None:
        if user in self.strategy.states:
            return
        self.strategy.states[user] = self.strategy.model.init_user_state(user)
        self.counters["users_created"] += 1
        obs.counter("stream.users_created")

    def _ensure_item(self, item: int) -> None:
        model = self.strategy.model
        if item < model.num_items:
            return
        added = model.grow_items(item + 1, rng=model.rng)
        self.strategy.sampler.grow(model.num_items)
        self.counters["items_grown"] += added
        obs.counter("stream.items_grown", added)

    def _score(self, user: int, item: int) -> Tuple[float, float]:
        """Prequential measurement: rank the item before learning it."""
        rank = rank_of_target(self.strategy.score_user(user), item)
        k = self.config.k
        return hit_at_k(rank, k), float(ndcg_at_k(rank, k))

    def _train_one(self, user: int, item: int,
                   history: Sequence[int]) -> bool:
        """One prequential training step; True when a step was taken."""
        if not history:
            self.counters["skipped_no_history"] += 1
            return False
        payload = UserPayload(user=user,
                              history=list(history)[-self.config.max_history:],
                              targets=[item])
        if self.strategy._train_user(payload, 0, self._optimizer()):
            return True
        self.counters["nonfinite_skips"] += 1
        return False

    def _optimizer(self) -> Adam:
        """The interval's optimizer (fresh per commit interval, so a
        resumed run rebuilds identical optimizer state from the
        boundary; moment rows auto-grow with the embedding table).
        Users' SA weights join it as their events arrive."""
        if self._opt is None:
            self._opt = self.strategy._optimizer(())
        return self._opt

    def _enqueue_pending(self, entry: dict) -> None:
        self.pending.append(entry)
        if len(self.pending) > self.config.buffer_size:
            dropped = self.pending.pop(0)
            self.counters["dropped"] += 1
            obs.counter("stream.backpressure_drops")
            obs.event("stream.backpressure", seq=dropped["seq"],
                      fill=len(self.pending))
        obs.gauge("stream.buffer_fill", len(self.pending))

    # ------------------------------------------------------------------ #
    # commit boundary: anomaly check / recovery, then checkpoint+journal
    # ------------------------------------------------------------------ #
    def _boundary(self) -> None:
        with obs.span("stream.interval", interval=self.interval,
                      offset=self.offset, mode=self.mode):
            if self.mode == MODE_HEALTHY:
                self._check_anomalies()
            else:
                self._attempt_recovery()
            self._commit()
        obs.sync()
        faults.fire("stream-boundary", interval=self.interval - 1,
                    offset=self.offset)

    def _window_recall(self) -> Optional[float]:
        if not self.window:
            return None
        return float(np.mean([h for h, _ in self.window]))

    def _window_ndcg(self) -> Optional[float]:
        if not self.window:
            return None
        return float(np.mean([n for _, n in self.window]))

    def _check_anomalies(self) -> None:
        sites = faults.non_finite_sites(
            self.strategy, [e["user"] for e in self._interval_events])
        if sites:
            self._degrade("non-finite-state", detail=sites[:10],
                          rollback=True)
            return
        recall = self._window_recall()
        if (self.config.min_window_recall > 0.0 and recall is not None
                and self.counters["scored"] >= self._floor_arm
                and recall < self.config.min_window_recall):
            self._degrade(
                "window-recall-floor",
                detail={"window_recall": recall,
                        "floor": self.config.min_window_recall},
                rollback=False)

    def _degrade(self, reason: str, detail, rollback: bool) -> None:
        self.mode = MODE_DEGRADED
        self.attempts = 0
        self.counters["degraded_spells"] += 1
        obs.counter("stream.degradations")
        obs.event("stream.degraded", reason=reason, interval=self.interval,
                  rollback=rollback)
        self._record_incident(reason, detail,
                              "degrade+rollback" if rollback else "degrade")
        if rollback:
            self._restore_committed(requeue=True)

    def _restore_committed(self, requeue: bool) -> None:
        """Discard the interval's training effects: restore the last
        committed checkpoint (params, interests, RNG streams) and reset
        the exactly-once chain to its committed prefix.  With
        ``requeue`` the discarded events enter the ingest buffer to be
        retrained after recovery."""
        if self.journal is not None and self.interval > 0:
            load_checkpoint(
                self.strategy,
                self.journal.checkpoint_path(self.interval - 1),
                create_missing=True)
        self.chain = self._committed_chain
        self.counters["trained"] = self._committed_trained
        if requeue:
            for entry in self._interval_events:
                self._enqueue_pending(entry)
        self._interval_events = []
        self._opt = None

    def _attempt_recovery(self) -> None:
        self.attempts += 1
        obs.event("stream.recovery_attempt", attempt=self.attempts,
                  queued=len(self.pending), interval=self.interval)
        retrained = 0
        for entry in self.pending:
            if self._train_one(entry["user"], entry["item"],
                               entry["history"]):
                self.chain = chain_extend(self.chain, entry["seq"])
                self.counters["trained"] += 1
                retrained += 1
        sites = faults.non_finite_sites(
            self.strategy, [e["user"] for e in self.pending])
        if not sites:
            self.mode = MODE_HEALTHY
            self.counters["recoveries"] += 1
            self.attempts = 0
            self.pending = []
            self._floor_arm = self.counters["scored"] + self.config.warmup
            obs.counter("stream.recoveries")
            obs.event("stream.recovered", interval=self.interval,
                      retrained=retrained)
            self._record_incident(
                "recovered", {"retrained": retrained}, "promote")
            return
        # the retrain itself went non-finite: roll back again and keep
        # the queue for another attempt — until the budget runs out
        self._restore_committed(requeue=False)
        if self.attempts >= self.config.max_recovery_attempts:
            for entry in self.pending:
                self._quarantine(
                    StreamEvent(entry["seq"], entry["user"], entry["item"],
                                entry["ts"]),
                    "degraded-dropped",
                    f"recovery failed {self.attempts} times")
            dropped = len(self.pending)
            self.pending = []
            self.mode = MODE_HEALTHY  # committed state is clean again
            self.attempts = 0
            self._floor_arm = self.counters["scored"] + self.config.warmup
            obs.event("stream.recovered", interval=self.interval,
                      retrained=0, dropped=dropped)
            self._record_incident(
                "recovery-exhausted", {"dropped": dropped},
                "drop-queue+promote")

    def _commit(self) -> None:
        record = IntervalRecord(
            interval=self.interval,
            offset=self.offset,
            trained=self.counters["trained"],
            scored=self.counters["scored"],
            quarantined=sum(self.quarantined_by_reason.values()),
            dropped=self.counters["dropped"],
            chain=self.chain,
            checkpoint=(self.journal.checkpoint_path(self.interval).name
                        if self.journal is not None else ""),
            mode=self.mode,
            window_recall=self._window_recall(),
            window_ndcg=self._window_ndcg(),
        )
        if record.window_recall is not None and record.window_ndcg is None:
            record.window_ndcg = 0.0
        if self.journal is not None:
            path = self.journal.checkpoint_path(self.interval)
            self._commit_with_retry(
                lambda: save_checkpoint(self.strategy, path,
                                        span=self.interval))
            self.journal.append(record, self._state_blob(),
                                retry=self._commit_with_retry)
            obs.counter("stream.intervals_committed")
            obs.event("stream.committed", interval=record.interval,
                      offset=record.offset, trained=record.trained,
                      mode=record.mode, checkpoint=record.checkpoint)
        self._records.append(record)
        self._committed_chain = self.chain
        self._committed_trained = self.counters["trained"]
        self._interval_events = []
        self._opt = None
        self._last_commit_offset = self.offset
        self.interval += 1

    def _record_incident(self, kind: str, detail, action: str) -> None:
        if self.journal is not None:
            self.journal.record_incident(int(self.interval), kind, detail,
                                         action, retry=self._commit_with_retry)

    def _commit_with_retry(self, write) -> None:
        """Run a commit write, retrying transient IO errors with seeded
        exponential backoff.  Corruption errors (``CheckpointError``,
        ``JournalError`` — ``ValueError``s) and simulated crashes
        propagate: retrying cannot fix them."""
        for attempt in range(self.config.max_retries + 1):
            try:
                write()
                return
            except OSError as err:
                if attempt >= self.config.max_retries:
                    raise
                delay = (self.config.backoff_base * (2 ** attempt)
                         * (0.5 + 0.5 * float(self._backoff_rng.random())))
                self.counters["backoffs"] += 1
                obs.counter("stream.backoffs")
                obs.event("stream.backoff", attempt=attempt,
                          delay_s=round(delay, 6), error=str(err)[:200])
                time.sleep(delay)

    # ------------------------------------------------------------------ #
    def _result(self) -> StreamResult:
        return StreamResult(
            dataset=self.dataset_name,
            model=self.model_name,
            strategy=self.strategy.name,
            events=self.offset,
            scored=self.counters["scored"],
            trained=self.counters["trained"],
            quarantined=dict(sorted(self.quarantined_by_reason.items())),
            dropped=self.counters["dropped"],
            backoffs=self.counters["backoffs"],
            degraded_spells=self.counters["degraded_spells"],
            recoveries=self.counters["recoveries"],
            users_created=self.counters["users_created"],
            items_grown=self.counters["items_grown"],
            window_recall=self._window_recall(),
            window_ndcg=self._window_ndcg(),
            chain=self.chain,
            mode=self.mode,
            intervals=list(self._records),
            resumed_from=self.resumed_from,
            directory=self.directory,
        )


def run_stream(
    strategy: IncrementalStrategy,
    events: Optional[Sequence[StreamEvent]] = None,
    config: Optional[StreamConfig] = None,
    dataset_name: str = "",
    model_name: str = "",
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
    trace_dir: Optional[PathLike] = None,
) -> StreamResult:
    """Run the prequential streaming pipeline over ``events``.

    ``strategy`` must be freshly constructed (pre-pretraining) — the
    pipeline pretrains on the strategy's split, then streams.  ``events``
    defaults to a deterministic chronological stream derived from the
    split's incremental spans (:func:`events_from_split`, seeded by the
    training config).  With ``checkpoint_dir`` the run is crash-safe:
    re-invoking with ``resume=True`` continues from the last committed
    interval, metric-identical to an uninterrupted run.  ``trace_dir``
    activates :mod:`repro.obs` tracing exactly as in
    :func:`repro.experiments.runner.run_strategy`.
    """
    stream_config = config or StreamConfig()
    if events is None:
        events = events_from_split(strategy.split,
                                   seed=strategy.config.seed)
    directory = Path(checkpoint_dir) if checkpoint_dir is not None else None
    owns_trace = trace_dir is not None and not obs.enabled()
    if owns_trace:
        run_id = "-".join(
            p for p in (dataset_name, model_name, strategy.name, "stream")
            if p)
        obs.start_tracing(trace_dir, run_id=run_id, resume=resume)
    try:
        pipeline = _Pipeline(strategy, events, stream_config, directory,
                             resume, dataset_name, model_name)
        return pipeline.run()
    finally:
        if owns_trace:
            obs.stop_tracing()
