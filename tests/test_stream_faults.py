"""Stream robustness under bad input and injected faults.

Two families of guarantees, both seeded and deterministic:

1. **Fault matrix** — for every bad input in the event list and every
   injected fault the pipeline either quarantines-and-continues
   (duplicated, malformed and stale events), takes the event in
   (late-but-tolerable and never-seen ones), or degrades-and-recovers
   (state faults); the run always completes and ends healthy.
2. **Exactly-once resume** — crash the run at *any* event boundary,
   resume, and the final sliding-window metrics, trained-event hash
   chain, and model parameters are byte-identical to the uninterrupted
   run; corrupting the newest checkpoint makes resume fall back one
   interval and still converge to the identical result.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import make_strategy
from repro.faults import Fault, FaultPlan, SimulatedCrash, active, flip_one_byte
from repro.incremental import TrainConfig
from repro.journal import Journal, JournalError
from repro.stream import (
    MODE_DEGRADED,
    MODE_HEALTHY,
    QUARANTINE_NAME,
    IntervalRecord,
    StreamConfig,
    StreamEvent,
    events_from_split,
    read_quarantine,
    run_stream,
)
from repro.stream import pipeline
from repro.stream.events import MAX_LATENESS
from repro.stream.pipeline import _Pipeline

N_EVENTS = 60
STREAM_CONFIG = StreamConfig(checkpoint_every=16)


def build(tiny_split, name="FT", seed=0):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                         num_negatives=4, seed=seed)
    return make_strategy(
        name, "ComiRec-DR", tiny_split, config,
        model_kwargs={"dim": 10, "num_interests": 2},
        strategy_kwargs={"c1": 0.2} if name == "IMSR" else {})


def stream_events(tiny_split):
    return events_from_split(tiny_split, seed=0)[:N_EVENTS]


def inserted(events, after, extra):
    """``events`` with ``extra`` delivered right after ``events[after]``."""
    return events[:after + 1] + list(extra) + events[after + 1:]


def redelivered(events, at):
    """``events`` with event ``at`` delivered twice in a row; the copy
    carries a fresh seq, as an at-least-once bus would assign it."""
    return inserted(events, at, [replace(events[at], seq=len(events))])


def malformed(events, at, field):
    """``events`` with one field of event ``at`` mangled: a user or
    item becomes -1, a timestamp NaN."""
    bad = {"user": -1, "item": -1, "ts": float("nan")}[field]
    return events[:at] + [replace(events[at], **{field: bad})] + events[at + 1:]


def delayed(events, at, by):
    """``events`` with event ``at`` delivered ``by`` events late."""
    rest = events[:at] + events[at + 1:]
    return rest[:at + by] + [events[at]] + rest[at + by:]


def never_seen(tiny_split, events, after, count):
    """``events`` with ``count`` events of never-seen users on
    never-seen items delivered right after ``events[after]``."""
    ts = events[after].ts + 1.0
    return inserted(events, after, [
        StreamEvent(seq=len(events) + i, user=1_000_000 + i,
                    item=tiny_split.num_items + i, ts=ts)
        for i in range(count)])


def state_hash(strategy):
    """Bytes of every model parameter and every user's stored interests."""
    digest = hashlib.sha256()
    for name, param in sorted(strategy.model.named_parameters()):
        digest.update(name.encode())
        digest.update(param.data.tobytes())
    for user in sorted(strategy.states):
        digest.update(str(user).encode())
        digest.update(np.ascontiguousarray(
            strategy.states[user].interests).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def baseline(tiny_split, tmp_path_factory):
    directory = tmp_path_factory.mktemp("stream-baseline")
    strategy = build(tiny_split)
    result = run_stream(strategy, events=stream_events(tiny_split),
                        config=STREAM_CONFIG, checkpoint_dir=directory / "run")
    return result, state_hash(strategy)


class TestFaultMatrix:
    """Every bad input and fault: quarantine-and-continue, take the event
    in, or degrade-and-recover."""

    def run_with(self, tiny_split, tmp_path, plan=None, events=None,
                 config=STREAM_CONFIG):
        strategy = build(tiny_split)
        with active(plan or FaultPlan()):
            result = run_stream(
                strategy, events=events or stream_events(tiny_split),
                config=config, checkpoint_dir=tmp_path / "run")
        return result, strategy

    def test_duplicate_is_quarantined_chain_unchanged(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path,
            events=redelivered(stream_events(tiny_split), 10))
        assert result.quarantined == {"duplicate": 1}
        assert result.mode == MODE_HEALTHY
        # the redelivered copy never trains: same trained set, same chain
        assert result.chain == base.chain
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert [r["reason"] for r in records] == ["duplicate"]

    def test_malformed_is_quarantined_stream_continues(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        events = stream_events(tiny_split)
        for at, field in ((10, "item"), (20, "user"), (30, "ts")):
            events = malformed(events, at, field)
        result, _ = self.run_with(tiny_split, tmp_path, events=events)
        assert result.quarantined == {"malformed-item": 1,
                                      "malformed-user": 1,
                                      "malformed-timestamp": 1}
        assert result.scored == base.scored - 3
        assert result.events == base.events  # every source event consumed
        assert result.mode == MODE_HEALTHY

    def test_reorder_still_trains_every_event(
            self, tiny_split, tmp_path, baseline):
        """An event delivered within the lateness bound still trains."""
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path,
            events=delayed(stream_events(tiny_split), 10, by=3))
        assert result.quarantined == {}
        assert result.scored == base.scored
        assert result.trained == base.trained
        assert result.chain != base.chain  # order is part of the witness
        assert result.mode == MODE_HEALTHY

    def test_event_beyond_lateness_bound_is_quarantined_stale(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        events = stream_events(tiny_split)
        # the stream's event times advance by 1 per event here, so this
        # many events later the watermark has passed the bound
        by = int(MAX_LATENESS) + 1
        assert events[5 + by].ts - events[5].ts > MAX_LATENESS
        result, _ = self.run_with(tiny_split, tmp_path,
                                  events=delayed(events, 5, by=by))
        assert result.quarantined == {"stale": 1}
        assert result.scored == base.scored - 1
        assert result.mode == MODE_HEALTHY
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert [(r["reason"], r["seq"]) for r in records] == [("stale", 5)]

    def test_io_error_burst_is_retried_with_backoff(
            self, tiny_split, tmp_path, baseline, monkeypatch):
        monkeypatch.setattr(pipeline, "BACKOFF_BASE", 0.0)
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path, FaultPlan().io_error_burst(first=2, length=2))
        assert result.backoffs >= 2
        assert result.chain == base.chain  # retries are invisible to training
        assert result.mode == MODE_HEALTHY

    def test_io_errors_beyond_retry_budget_propagate(
            self, tiny_split, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "BACKOFF_BASE", 0.0)
        monkeypatch.setattr(pipeline, "MAX_RETRIES", 2)
        plan = FaultPlan().io_error_burst(first=0, length=50)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(OSError):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        # the first write and two retries, then the error propagated
        assert plan.counters["io-write"] == 3

    def test_cold_start_flood_grows_users_and_items(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, strategy = self.run_with(
            tiny_split, tmp_path,
            events=never_seen(tiny_split, stream_events(tiny_split), 10, 5))
        assert result.users_created == 5
        assert result.items_grown == 5
        assert strategy.model.num_items == tiny_split.num_items + 5
        assert strategy.model.item_emb.weight.data.shape[0] == \
            tiny_split.num_items + 5
        assert result.scored == base.scored + 5
        assert result.quarantined == {}
        assert result.mode == MODE_HEALTHY

    def test_poisoned_params_degrade_then_recover(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, strategy = self.run_with(
            tiny_split, tmp_path, FaultPlan().poison_params_after_event(40))
        assert result.degraded_spells == 1
        assert result.recoveries == 1
        assert result.mode == MODE_HEALTHY
        # every accepted event still trained exactly once (rolled-back
        # events were requeued and retrained during recovery)
        assert result.trained == base.trained
        # no NaN survived anywhere
        for _, param in strategy.model.named_parameters():
            assert np.isfinite(param.data).all()

    def test_poisoned_prev_interests_degrade_then_recover(
            self, tiny_split, tmp_path, baseline):
        """The commit scan covers the interval users' previous interests,
        the retention target of their next steps, as the span runner's
        scan does."""
        base, _ = baseline
        user = stream_events(tiny_split)[40].user

        def poison(strategy=None, **info):
            state = strategy.states[user]
            state.prev_interests = np.full_like(state.interests, np.nan)

        plan = FaultPlan()
        plan.faults.append(Fault("stream-trained", "call", match={"seq": 40},
                                 payload=poison))
        result, strategy = self.run_with(tiny_split, tmp_path, plan)
        assert result.degraded_spells == 1
        assert result.recoveries == 1
        assert result.mode == MODE_HEALTHY
        assert result.trained == base.trained
        assert np.isfinite(strategy.states[user].prev_interests).all()
        incident = Journal.load(IntervalRecord, tmp_path / "run").incidents[0]
        assert f"user/{user}/prev_interests" in incident["detail"]

    def test_recall_floor_demotes_to_score_only(self, tiny_split, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(pipeline, "WARMUP", 8)
        monkeypatch.setattr(pipeline, "BUFFER_SIZE", 4)
        config = StreamConfig(checkpoint_every=16, min_window_recall=1.0)
        result, _ = self.run_with(tiny_split, tmp_path, config=config)
        # an unreachable floor forces degrade; recovery retrains cleanly,
        # then the floor re-arms and trips again — spells cycle
        assert result.degraded_spells >= 1
        assert result.recoveries >= 1
        # the bounded ingest buffer overflowed while degraded
        assert result.dropped >= 1
        assert result.scored == N_EVENTS  # scoring never stops


class TestRecoveryExhaustion:
    def test_unrecoverable_queue_is_quarantined(self, tiny_split, tmp_path,
                                                monkeypatch):
        """When every recovery attempt re-poisons the params, the queue is
        dropped to quarantine (``degraded-dropped``) and the stream
        returns to the last clean commit instead of looping forever."""
        monkeypatch.setattr(pipeline, "MAX_RECOVERY_ATTEMPTS", 2)
        strategy = build(tiny_split)
        events = stream_events(tiny_split)
        run = _Pipeline(strategy, events, STREAM_CONFIG, tmp_path / "run",
                        False, "tiny", "ComiRec-DR")

        poisoned_train = run._train_one
        attempts = []

        def always_poisons(user, item, history):
            took_step = poisoned_train(user, item, history)
            if run.mode == MODE_DEGRADED and took_step:
                attempts.append(run.attempts)
                # deliberate poisoning to exhaust recovery
                strategy.model.item_emb.weight.data[1, 0] = float("nan")
            return took_step

        run._train_one = always_poisons
        plan = FaultPlan().poison_params_after_event(20)
        with active(plan):
            result = run.run()
        # the queue was dropped after the second failed attempt
        assert max(attempts) == 2

        assert result.degraded_spells >= 1
        assert result.mode == MODE_HEALTHY
        assert "degraded-dropped" in result.quarantined
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert any(r["reason"] == "degraded-dropped" for r in records)
        for _, param in strategy.model.named_parameters():
            assert np.isfinite(param.data).all()


class TestCrashResume:
    """Crash at any event boundary; resume reproduces the uninterrupted
    run exactly: chain, window metrics, and parameter bytes."""

    def crash_and_resume(self, tiny_split, directory, seq, events=None):
        events = events or stream_events(tiny_split)
        plan = FaultPlan().crash_after_event(seq)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=events, config=STREAM_CONFIG,
                       checkpoint_dir=directory)
        resumed = build(tiny_split)
        result = run_stream(resumed, events=events, config=STREAM_CONFIG,
                            checkpoint_dir=directory, resume=True)
        return result, resumed

    def test_crash_at_every_event_boundary_ft(self, tiny_split, tmp_path,
                                              baseline):
        base, base_hash = baseline
        for seq in range(N_EVENTS):
            directory = tmp_path / f"crash-{seq}"
            result, resumed = self.crash_and_resume(tiny_split, directory, seq)
            assert result.chain == base.chain, f"chain diverged at seq {seq}"
            assert result.window_recall == base.window_recall, \
                f"window recall diverged at seq {seq}"
            assert result.window_ndcg == base.window_ndcg
            assert state_hash(resumed) == base_hash, \
                f"parameters diverged at seq {seq}"

    def test_crash_at_interval_commit_boundary(self, tiny_split, tmp_path,
                                               baseline):
        base, base_hash = baseline
        plan = FaultPlan().crash_at_stream_boundary(2)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        resumed = build(tiny_split)
        result = run_stream(resumed, events=stream_events(tiny_split),
                            config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "run", resume=True)
        assert result.resumed_from == 2
        assert result.chain == base.chain
        assert state_hash(resumed) == base_hash

    def test_corrupt_newest_checkpoint_falls_back_one_interval(
            self, tiny_split, tmp_path, baseline):
        base, base_hash = baseline
        plan = FaultPlan().crash_after_event(40)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        journal = Journal.load(IntervalRecord, tmp_path / "run")
        newest = max(journal.intervals)
        flip_one_byte(journal.checkpoint_path(newest))

        resumed = build(tiny_split)
        result = run_stream(resumed, events=stream_events(tiny_split),
                            config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "run", resume=True)
        assert result.resumed_from == newest - 1
        assert result.chain == base.chain
        assert result.window_recall == base.window_recall
        assert state_hash(resumed) == base_hash

    def test_corrupt_journal_refuses_resume_loudly(self, tiny_split,
                                                   tmp_path):
        plan = FaultPlan().crash_after_event(40)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        flip_one_byte(tmp_path / "run" / "stream-journal.json")
        resumed = build(tiny_split)
        with pytest.raises(JournalError):
            run_stream(resumed, events=stream_events(tiny_split),
                       config=STREAM_CONFIG,
                       checkpoint_dir=tmp_path / "run", resume=True)

    def test_fingerprint_mismatch_refuses_resume(self, tiny_split, tmp_path):
        strategy = build(tiny_split)
        run_stream(strategy, events=stream_events(tiny_split)[:20],
                   config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        other = build(tiny_split, seed=3)  # another TrainConfig, same dir
        with pytest.raises(JournalError, match="fingerprint"):
            run_stream(other, events=stream_events(tiny_split)[:20],
                       config=STREAM_CONFIG,
                       checkpoint_dir=tmp_path / "run", resume=True)

    def test_resume_with_empty_directory_runs_fresh(self, tiny_split,
                                                    tmp_path, baseline):
        base, base_hash = baseline
        resumed = build(tiny_split)
        result = run_stream(resumed, events=stream_events(tiny_split),
                            config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "run", resume=True)
        assert result.resumed_from is None
        assert result.chain == base.chain
        assert result.trained == base.trained
        assert result.window_recall == base.window_recall
        assert result.window_ndcg == base.window_ndcg
        assert state_hash(resumed) == base_hash

    def test_crash_before_first_commit_never_resumes_an_older_run(
            self, tiny_split, tmp_path):
        """A fresh run writes its empty journal before pretraining, so a
        crash before its first commit makes resume restart it, not
        restore the finished run an earlier job left in the directory."""
        events = stream_events(tiny_split)
        straight = build(tiny_split)
        base = run_stream(straight, events=events[:30], config=STREAM_CONFIG,
                          checkpoint_dir=tmp_path / "straight")
        run_stream(build(tiny_split), events=malformed(events, 5, "item"),
                   config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        crash = FaultPlan()
        crash.faults.append(Fault("train-step", "crash", at=0))
        with active(crash), pytest.raises(SimulatedCrash):
            run_stream(build(tiny_split), events=events[:30],
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        resumed = build(tiny_split)
        result = run_stream(resumed, events=events[:30], config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "run", resume=True)
        assert result.resumed_from is None
        assert result.events == base.events
        assert result.chain == base.chain
        assert result.trained == base.trained
        assert state_hash(resumed) == state_hash(straight)
        assert result.quarantined == {}
        assert read_quarantine(tmp_path / "run" / QUARANTINE_NAME) == []

    def test_quarantine_survives_crash_without_double_records(
            self, tiny_split, tmp_path):
        """A quarantined event before the crash is recorded once; records
        past the resume offset are truncated and re-created on replay;
        the resumed run matches the uninterrupted one."""
        events = malformed(stream_events(tiny_split), 10, "item")
        straight = build(tiny_split)
        base = run_stream(straight, events=events, config=STREAM_CONFIG,
                          checkpoint_dir=tmp_path / "straight")
        # the malformed event 10 is before the resumed offset (32): its
        # record must survive resume exactly once
        result, resumed = self.crash_and_resume(
            tiny_split, tmp_path / "run", 40, events=events)
        assert result.resumed_from == 2
        assert result.chain == base.chain
        assert result.window_recall == base.window_recall
        assert result.quarantined == {"malformed-item": 1}
        assert state_hash(resumed) == state_hash(straight)
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert [r["reason"] for r in records] == ["malformed-item"]

    def test_cold_start_growth_survives_crash_resume(self, tiny_split,
                                                     tmp_path):
        """Items grown mid-stream restore from the checkpoint: never-seen
        events before the crash, committed, must not perturb the resumed
        run."""
        events = never_seen(tiny_split, stream_events(tiny_split), 10, 4)
        straight = build(tiny_split)
        base = run_stream(straight, events=events, config=STREAM_CONFIG,
                          checkpoint_dir=tmp_path / "straight")
        result, resumed = self.crash_and_resume(
            tiny_split, tmp_path / "crashed", 40, events=events)
        assert resumed.model.num_items == tiny_split.num_items + 4
        assert result.chain == base.chain
        assert result.window_recall == base.window_recall
        assert state_hash(resumed) == state_hash(straight)

    def test_journal_holding_a_flood_counter_resumes(self, tiny_split,
                                                     tmp_path, baseline):
        """Journals written while fault plans could inject events count
        them as ``flood_injected``; such a directory still resumes."""
        base, base_hash = baseline
        with active(FaultPlan().crash_after_event(40)), \
                pytest.raises(SimulatedCrash):
            run_stream(build(tiny_split), events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        journal = Journal.load(IntervalRecord, tmp_path / "run")
        for blob in (journal.state, journal.prev_state):
            blob["counters"]["flood_injected"] = 0
        journal.write()

        resumed = build(tiny_split)
        result = run_stream(resumed, events=stream_events(tiny_split),
                            config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "run", resume=True)
        assert result.resumed_from == max(journal.intervals)
        assert result.chain == base.chain
        assert result.window_recall == base.window_recall
        assert state_hash(resumed) == base_hash


class TestStrategyRefusal:
    """The stream runs FT's learn step, so it refuses every strategy
    whose method adds more, before it writes anything."""

    @pytest.mark.parametrize("name", ["IMSR", "ADER", "EWC"])
    def test_other_strategy_is_refused_and_nothing_is_written(
            self, tiny_split, tmp_path, name):
        with pytest.raises(ValueError, match=f"not {name}'s method"):
            run_stream(build(tiny_split, name),
                       events=stream_events(tiny_split), config=STREAM_CONFIG,
                       checkpoint_dir=tmp_path / "run",
                       trace_dir=tmp_path / "trace")
        assert list(tmp_path.iterdir()) == []
