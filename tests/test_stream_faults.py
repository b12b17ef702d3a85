"""Stream robustness under injected faults.

Two families of guarantees, both seeded and deterministic:

1. **Fault matrix** — for every stream fault kind the pipeline either
   quarantines-and-continues (delivery faults) or degrades-and-recovers
   (state faults); the run always completes and ends healthy.
2. **Exactly-once resume** — crash the run at *any* event boundary,
   resume, and the final sliding-window metrics, trained-event hash
   chain, and model parameters are byte-identical to the uninterrupted
   run; corrupting the newest checkpoint makes resume fall back one
   interval and still converge to the identical result.
"""

from __future__ import annotations

import hashlib

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
    events_from_split,
    read_quarantine,
    run_stream,
)
from repro.stream.pipeline import _Pipeline

N_EVENTS = 60
STREAM_CONFIG = StreamConfig(checkpoint_every=16, backoff_base=0.0)


def build(tiny_split, name="FT"):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                         num_negatives=4, seed=0)
    return make_strategy(
        name, "ComiRec-DR", tiny_split, config,
        model_kwargs={"dim": 10, "num_interests": 2},
        strategy_kwargs={"c1": 0.2} if name == "IMSR" else {})


def stream_events(tiny_split):
    return events_from_split(tiny_split, seed=0)[:N_EVENTS]


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
    """Every fault kind: quarantine-and-continue or degrade-and-recover."""

    def run_with(self, tiny_split, tmp_path, plan, name="FT",
                 config=STREAM_CONFIG):
        strategy = build(tiny_split, name)
        with active(plan):
            result = run_stream(strategy, events=stream_events(tiny_split),
                                config=config, checkpoint_dir=tmp_path / "run")
        return result, strategy

    def test_duplicate_is_quarantined_chain_unchanged(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path, FaultPlan().duplicate_event(10))
        assert result.quarantined == {"duplicate": 1}
        assert result.mode == MODE_HEALTHY
        # the redelivered copy never trains: same trained set, same chain
        assert result.chain == base.chain
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert [r["reason"] for r in records] == ["duplicate"]

    def test_malformed_is_quarantined_stream_continues(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path, FaultPlan().malform_event(10, fld="item"))
        assert result.quarantined == {"malformed-item": 1}
        assert result.scored == base.scored - 1
        assert result.events == base.events  # every source event consumed
        assert result.mode == MODE_HEALTHY

    def test_reorder_still_trains_every_event(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path, FaultPlan().reorder_event(10, delay=3))
        assert result.quarantined == {}
        assert result.scored == base.scored
        assert result.trained == base.trained
        assert result.chain != base.chain  # order is part of the witness
        assert result.mode == MODE_HEALTHY

    def test_io_error_burst_is_retried_with_backoff(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, _ = self.run_with(
            tiny_split, tmp_path, FaultPlan().io_error_burst(first=2, length=2))
        assert result.backoffs >= 2
        assert result.chain == base.chain  # retries are invisible to training
        assert result.mode == MODE_HEALTHY

    def test_io_errors_beyond_retry_budget_propagate(
            self, tiny_split, tmp_path):
        plan = FaultPlan().io_error_burst(first=0, length=50)
        strategy = build(tiny_split)
        with active(plan), pytest.raises(OSError):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=StreamConfig(checkpoint_every=16,
                                           backoff_base=0.0, max_retries=2),
                       checkpoint_dir=tmp_path / "run")

    def test_cold_start_flood_grows_users_and_items(
            self, tiny_split, tmp_path, baseline):
        base, _ = baseline
        result, strategy = self.run_with(
            tiny_split, tmp_path, FaultPlan().cold_start_flood(10, count=5))
        assert result.users_created == 5
        assert result.items_grown == 5
        assert strategy.model.num_items == tiny_split.num_items + 5
        assert strategy.model.item_emb.weight.data.shape[0] == \
            tiny_split.num_items + 5
        assert result.scored == base.scored + 5
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

    def test_recall_floor_demotes_to_score_only(self, tiny_split, tmp_path):
        config = StreamConfig(checkpoint_every=16, backoff_base=0.0,
                              min_window_recall=1.0, warmup=8,
                              buffer_size=4, max_recovery_attempts=3)
        result, _ = self.run_with(tiny_split, tmp_path, FaultPlan(),
                                  config=config)
        # an unreachable floor forces degrade; recovery retrains cleanly,
        # then the floor re-arms and trips again — spells cycle
        assert result.degraded_spells >= 1
        assert result.recoveries >= 1
        # the bounded ingest buffer overflowed while degraded
        assert result.dropped >= 1
        assert result.scored == N_EVENTS  # scoring never stops


class TestRecoveryExhaustion:
    def test_unrecoverable_queue_is_quarantined(self, tiny_split, tmp_path):
        """When every recovery attempt re-poisons the params, the queue is
        dropped to quarantine (``degraded-dropped``) and the stream
        returns to the last clean commit instead of looping forever."""
        strategy = build(tiny_split)
        config = StreamConfig(checkpoint_every=16, backoff_base=0.0,
                              max_recovery_attempts=2)
        events = stream_events(tiny_split)
        pipeline = _Pipeline(strategy, events, config, tmp_path / "run",
                             False, "tiny", "ComiRec-DR")

        poisoned_train = pipeline._train_one

        def always_poisons(user, item, history):
            took_step = poisoned_train(user, item, history)
            if pipeline.mode == MODE_DEGRADED and took_step:
                # deliberate poisoning to exhaust recovery
                strategy.model.item_emb.weight.data[1, 0] = float("nan")
            return took_step

        pipeline._train_one = always_poisons
        plan = FaultPlan().poison_params_after_event(20)
        with active(plan):
            result = pipeline.run()

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

    def crash_and_resume(self, tiny_split, directory, seq, name="FT"):
        plan = FaultPlan()
        plan.faults.append(Fault(point="stream-event-boundary", kind="crash",
                                 match={"seq": seq}))
        strategy = build(tiny_split, name)
        with active(plan), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=directory)
        resumed = build(tiny_split, name)
        result = run_stream(resumed, events=stream_events(tiny_split),
                            config=STREAM_CONFIG, checkpoint_dir=directory,
                            resume=True)
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

    @pytest.mark.parametrize("name", ["ADER", "EWC", "IMSR"])
    @pytest.mark.parametrize("seq", [0, 13, 27, 59])
    def test_crash_resume_identity_other_strategies(self, tiny_split,
                                                    tmp_path, name, seq):
        events = stream_events(tiny_split)
        straight = build(tiny_split, name)
        base = run_stream(straight, events=events, config=STREAM_CONFIG,
                          checkpoint_dir=tmp_path / "straight")
        base_hash = state_hash(straight)
        result, resumed = self.crash_and_resume(
            tiny_split, tmp_path / "crashed", seq, name=name)
        assert result.chain == base.chain
        assert result.window_recall == base.window_recall
        assert state_hash(resumed) == base_hash

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
        plan = FaultPlan()
        plan.faults.append(Fault(point="stream-event-boundary", kind="crash",
                                 match={"seq": 40}))
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
        plan = FaultPlan()
        plan.faults.append(Fault(point="stream-event-boundary", kind="crash",
                                 match={"seq": 40}))
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
        other = build(tiny_split, "EWC")  # different strategy, same dir
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
        with active(FaultPlan().malform_event(5)):
            run_stream(build(tiny_split), events=events, config=STREAM_CONFIG,
                       checkpoint_dir=tmp_path / "run")
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
        past the resume offset are truncated and re-created on replay."""
        combined = FaultPlan().malform_event(10, fld="item")
        combined.faults.append(Fault(point="stream-event-boundary",
                                     kind="crash", match={"seq": 40}))
        strategy = build(tiny_split)
        with active(combined), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=stream_events(tiny_split),
                       config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run")
        resumed = build(tiny_split)
        # the malform modifier hit event 10, which is before the resumed
        # offset (32): the record must survive resume exactly once
        run_stream(resumed, events=stream_events(tiny_split),
                   config=STREAM_CONFIG, checkpoint_dir=tmp_path / "run",
                   resume=True)
        records = read_quarantine(tmp_path / "run" / QUARANTINE_NAME)
        assert [r["reason"] for r in records] == ["malformed-item"]

    def test_cold_start_growth_survives_crash_resume(self, tiny_split,
                                                     tmp_path):
        """Items grown mid-stream restore from the checkpoint: a flood
        before the crash, committed, must not perturb the resumed run."""
        events = stream_events(tiny_split)
        flood_plan = FaultPlan().cold_start_flood(10, count=4)
        straight = build(tiny_split)
        with active(flood_plan):
            base = run_stream(straight, events=events, config=STREAM_CONFIG,
                              checkpoint_dir=tmp_path / "straight")
        base_hash = state_hash(straight)

        combined = FaultPlan().cold_start_flood(10, count=4)
        combined.faults.append(Fault(point="stream-event-boundary",
                                     kind="crash", match={"seq": 40}))
        strategy = build(tiny_split)
        with active(combined), pytest.raises(SimulatedCrash):
            run_stream(strategy, events=events, config=STREAM_CONFIG,
                       checkpoint_dir=tmp_path / "crashed")
        resumed = build(tiny_split)
        result = run_stream(resumed, events=events, config=STREAM_CONFIG,
                            checkpoint_dir=tmp_path / "crashed", resume=True)
        assert resumed.model.num_items == tiny_split.num_items + 4
        assert result.chain == base.chain
        assert state_hash(resumed) == base_hash
