"""Crash/resume equivalence: the headline crash-safety property.

A journaled run that crashes at *any* span boundary and is resumed must
be metric-identical (exact float equality, not tolerance) to the same
run executed uninterrupted — checkpoints capture every RNG stream, so
the resumed process continues the exact random sequence.
"""

import json

import numpy as np
import pytest

from repro.experiments import (
    JOURNAL_NAME,
    SpanRecord,
    make_strategy,
    run_strategy,
)
from repro.faults import Fault, FaultPlan, SimulatedCrash, active, flip_one_byte
from repro.incremental import TrainConfig
from repro.journal import Journal, JournalError


def fast_config(**overrides):
    base = dict(epochs_pretrain=2, epochs_incremental=1,
                num_negatives=4, seed=0)
    return TrainConfig(**{**base, **overrides})


def build(tiny_split, name="IMSR", model="ComiRec-DR", config=None):
    return make_strategy(
        name, model, tiny_split, config or fast_config(),
        model_kwargs={"dim": 10, "num_interests": 2},
        strategy_kwargs={"c1": 0.2} if name == "IMSR" else {})


def assert_metric_identical(result, reference):
    """Exact equality on every per-span metric the paper reports."""
    assert len(result.per_span) == len(reference.per_span)
    for ours, theirs in zip(result.per_span, reference.per_span):
        assert ours.hr == theirs.hr
        assert ours.ndcg == theirs.ndcg
        assert ours.num_cases == theirs.num_cases
    assert result.interest_counts == reference.interest_counts
    assert result.hr == reference.hr
    assert result.ndcg == reference.ndcg


@pytest.fixture(scope="module")
def baseline(tiny_split):
    """The uninterrupted, un-checkpointed reference run."""
    return run_strategy(build(tiny_split), tiny_split, "tiny", "ComiRec-DR")


@pytest.fixture(scope="module")
def journaled(tiny_split, tmp_path_factory):
    """A complete journaled run and its checkpoint directory."""
    ckdir = tmp_path_factory.mktemp("journaled")
    result = run_strategy(build(tiny_split), tiny_split, "tiny", "ComiRec-DR",
                          checkpoint_dir=ckdir)
    return ckdir, result


class TestJournaledRun:
    def test_checkpointing_does_not_change_metrics(self, baseline, journaled):
        _, result = journaled
        assert_metric_identical(result, baseline)
        assert result.resumed_spans == []
        assert result.incidents == []

    def test_directory_layout(self, journaled, tiny_split):
        ckdir, _ = journaled
        assert (ckdir / JOURNAL_NAME).exists()
        for span in range(tiny_split.T):  # span 0 = pretraining
            assert (ckdir / f"span-{span:03d}.npz").exists()
        journal = Journal.load(SpanRecord, ckdir)
        assert sorted(journal.spans) == list(range(tiny_split.T))
        assert journal.spans[0].hr is None  # pretraining has no evaluation
        assert journal.last_restorable_span() == tiny_split.T - 1

    def test_resume_of_complete_run_recomputes_nothing(
            self, tiny_split, journaled, baseline):
        ckdir, _ = journaled
        result = run_strategy(build(tiny_split), tiny_split, "tiny",
                              "ComiRec-DR", checkpoint_dir=ckdir, resume=True)
        assert result.resumed_spans == list(range(1, tiny_split.T))
        assert_metric_identical(result, baseline)


class TestCrashResumeEquivalence:
    """The acceptance property, for every boundary of the 4-span run."""

    @pytest.mark.parametrize("boundary", [0, 1, 2, 3])
    def test_crash_at_boundary_then_resume_is_metric_identical(
            self, tiny_split, baseline, tmp_path, boundary):
        plan = FaultPlan(seed=boundary).crash_at_span_boundary(boundary)
        with active(plan):
            with pytest.raises(SimulatedCrash):
                run_strategy(build(tiny_split), tiny_split, "tiny",
                             "ComiRec-DR", checkpoint_dir=tmp_path)
        # the journal holds exactly the spans committed before the crash
        journal = Journal.load(SpanRecord, tmp_path)
        assert sorted(journal.spans) == list(range(boundary + 1))
        assert journal.last_restorable_span() == boundary

        resumed = run_strategy(build(tiny_split), tiny_split, "tiny",
                               "ComiRec-DR", checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_spans == list(range(1, boundary + 1))
        assert_metric_identical(resumed, baseline)

    def test_crash_before_span_then_resume(self, tiny_split, baseline,
                                           tmp_path):
        with active(FaultPlan().crash_before_span(2)):
            with pytest.raises(SimulatedCrash):
                run_strategy(build(tiny_split), tiny_split, "tiny",
                             "ComiRec-DR", checkpoint_dir=tmp_path)
        resumed = run_strategy(build(tiny_split), tiny_split, "tiny",
                               "ComiRec-DR", checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_spans == [1]
        assert_metric_identical(resumed, baseline)

    def test_resume_with_empty_directory_runs_fresh(self, tiny_split,
                                                    baseline, tmp_path):
        result = run_strategy(build(tiny_split), tiny_split, "tiny",
                              "ComiRec-DR", checkpoint_dir=tmp_path,
                              resume=True)
        assert result.resumed_spans == []
        assert_metric_identical(result, baseline)

    def test_crash_resume_for_finetune_strategy(self, tiny_split, tmp_path):
        """The property is strategy-agnostic: FT's simpler state resumes
        identically too."""
        reference = run_strategy(build(tiny_split, name="FT"), tiny_split,
                                 "tiny", "ComiRec-DR")
        with active(FaultPlan().crash_at_span_boundary(2)):
            with pytest.raises(SimulatedCrash):
                run_strategy(build(tiny_split, name="FT"), tiny_split,
                             "tiny", "ComiRec-DR", checkpoint_dir=tmp_path)
        resumed = run_strategy(build(tiny_split, name="FT"), tiny_split,
                               "tiny", "ComiRec-DR", checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_spans == [1, 2]
        assert_metric_identical(resumed, reference)


class TestStatefulStrategyResume:
    """Strategies carrying state beyond the base contract — replay
    pools, Fisher estimates — must resume metric-identically too: their
    extra state rides in the checkpoint's ``extra/`` arrays and their
    private RNG streams in the manifest."""

    KWARGS = {"ADER": {"pool_per_user": 2},
              "EWC": {"fisher_samples": 8},
              "IMSR+Replay": {"pool_per_user": 2}}

    def _build(self, tiny_split, name):
        return make_strategy(name, "ComiRec-DR", tiny_split, fast_config(),
                             model_kwargs={"dim": 10, "num_interests": 2},
                             strategy_kwargs=self.KWARGS[name])

    @pytest.mark.parametrize("name", ["ADER", "EWC", "IMSR+Replay"])
    def test_crash_then_resume_is_metric_identical(self, tiny_split,
                                                   tmp_path, name):
        reference = run_strategy(self._build(tiny_split, name), tiny_split,
                                 "tiny", "ComiRec-DR")
        with active(FaultPlan().crash_at_span_boundary(1)):
            with pytest.raises(SimulatedCrash):
                run_strategy(self._build(tiny_split, name), tiny_split,
                             "tiny", "ComiRec-DR", checkpoint_dir=tmp_path)
        resumed = run_strategy(self._build(tiny_split, name), tiny_split,
                               "tiny", "ComiRec-DR", checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_spans == [1]
        assert_metric_identical(resumed, reference)


class TestResumeSafety:
    def test_fingerprint_mismatch_refuses_resume(self, tiny_split, journaled):
        ckdir, _ = journaled
        other = build(tiny_split, config=fast_config(seed=3))
        with pytest.raises(JournalError, match="refusing to resume"):
            run_strategy(other, tiny_split, "tiny", "ComiRec-DR",
                         checkpoint_dir=ckdir, resume=True)

    def test_every_byte_flip_is_detected(self, journaled, tmp_path):
        """Property test: flip ONE byte of journal.json anywhere — load
        must refuse (the stream journal's byte-flip test, mirrored)."""
        ckdir, _ = journaled
        path = tmp_path / JOURNAL_NAME
        path.write_bytes((ckdir / JOURNAL_NAME).read_bytes())
        size = path.stat().st_size
        rng = np.random.default_rng(11)
        offsets = sorted({0, size - 1,
                          *map(int, rng.integers(size, size=40))})
        for offset in offsets:
            flip_one_byte(path, offset=offset)
            with pytest.raises(JournalError):
                Journal.load(SpanRecord, tmp_path)
            flip_one_byte(path, offset=offset)  # restore
        Journal.load(SpanRecord, tmp_path)  # restored file loads again

    def test_changed_digit_that_still_parses_is_detected(self, journaled,
                                                          tmp_path):
        """One changed digit of span 1's recorded HR is still valid JSON;
        without the trailer a resumed run reported it as span 1's HR."""
        ckdir, _ = journaled
        data = bytearray((ckdir / JOURNAL_NAME).read_bytes())
        at = data.index(b'"hr":0.') + len(b'"hr":0.')
        data[at] = ord("8") if data[at] == ord("9") else data[at] + 1
        (tmp_path / JOURNAL_NAME).write_bytes(bytes(data))
        with pytest.raises(JournalError, match="SHA-256"):
            Journal.load(SpanRecord, tmp_path)

    def test_version_1_journal_is_refused_by_version(self, tmp_path):
        (tmp_path / JOURNAL_NAME).write_text(json.dumps(
            {"version": 1, "fingerprint": "fp", "spans": {},
             "incidents": []}))
        with pytest.raises(JournalError, match="version 1"):
            Journal.load(SpanRecord, tmp_path)

    def test_corrupt_newest_checkpoint_falls_back_and_retrains(
            self, tiny_split, journaled, baseline):
        """A bit-flipped span-003 checkpoint must not poison the resume:
        the journal falls back to span 2 and retrains span 3, which (RNG
        restored) reproduces the uninterrupted metrics exactly."""
        ckdir, _ = journaled
        target = ckdir / "span-003.npz"
        offset = flip_one_byte(target, rng=np.random.default_rng(11))
        try:
            journal = Journal.load(SpanRecord, ckdir)
            assert journal.last_restorable_span() == 2
            resumed = run_strategy(build(tiny_split), tiny_split, "tiny",
                                   "ComiRec-DR", checkpoint_dir=ckdir,
                                   resume=True)
            assert resumed.resumed_spans == [1, 2]
            assert_metric_identical(resumed, baseline)
        finally:
            # span-003 was rewritten by the resumed run or is restorable
            if journal.last_restorable_span() != 3:
                flip_one_byte(target, offset=offset)

    def test_unrestorable_resume_drops_stale_spans_and_incidents(
            self, tiny_split, baseline, tmp_path):
        """When nothing is restorable the prior run's journal records —
        spans pointing at corrupt checkpoints *and* incidents — must not
        leak into the fresh run's journal or its RunResult."""
        plan = FaultPlan(seed=5).poison_params_after_span(2)
        with active(plan):
            first = run_strategy(build(tiny_split), tiny_split, "tiny",
                                 "ComiRec-DR", checkpoint_dir=tmp_path)
        assert first.incidents  # the aborted run left an incident behind
        for ckpt in sorted(tmp_path.glob("span-*.npz")):
            flip_one_byte(ckpt, rng=np.random.default_rng(1))

        result = run_strategy(build(tiny_split), tiny_split, "tiny",
                              "ComiRec-DR", checkpoint_dir=tmp_path,
                              resume=True)
        assert result.resumed_spans == []
        assert result.incidents == []
        assert_metric_identical(result, baseline)
        journal = Journal.load(SpanRecord, tmp_path)
        assert journal.incidents == []


class TestDivergenceRollback:
    def test_poisoned_params_trigger_rollback_incident(self, tiny_split,
                                                       tmp_path):
        plan = FaultPlan(seed=5).poison_params_after_span(2)
        with active(plan):
            result = run_strategy(build(tiny_split), tiny_split, "tiny",
                                  "ComiRec-DR", checkpoint_dir=tmp_path)
        assert len(result.incidents) == 1
        incident = result.incidents[0]
        assert incident["span"] == 2
        assert incident["kind"] == "non-finite-state"
        assert incident["action"] == "rolled-back-to-span-1"
        assert incident["detail"]  # names the poisoned site

        journal = Journal.load(SpanRecord, tmp_path)
        assert journal.spans[2].rolled_back
        assert not journal.spans[3].rolled_back
        assert journal.incidents == result.incidents

        # the guard contained the damage: every metric stayed finite
        for span_result in result.per_span:
            assert np.isfinite(span_result.hr)
            assert np.isfinite(span_result.ndcg)
        for state in (journal, ):
            assert state.last_restorable_span() == 3

    def test_poisoned_prev_interests_trigger_rollback(self, tiny_split,
                                                      tmp_path):
        """A NaN in a prev-interests snapshot feeds the retention loss
        of later spans, so the guard must catch it too."""
        def poison(strategy=None, **info):
            if strategy is None:
                return
            state = strategy.states[sorted(strategy.states)[0]]
            if state.prev_interests.size == 0:
                state.prev_interests = np.full(
                    (1, state.interests.shape[1]), np.nan)
            else:
                state.prev_interests = state.prev_interests.copy()
                state.prev_interests.reshape(-1)[0] = np.nan

        plan = FaultPlan()
        plan.faults.append(Fault("span-trained", "call",
                                 match={"span": 2}, payload=poison))
        with active(plan):
            result = run_strategy(build(tiny_split), tiny_split, "tiny",
                                  "ComiRec-DR", checkpoint_dir=tmp_path)
        assert len(result.incidents) == 1
        incident = result.incidents[0]
        assert incident["kind"] == "non-finite-state"
        assert any("prev_interests" in site for site in incident["detail"])
        for span_result in result.per_span:
            assert np.isfinite(span_result.hr)

    def test_metrics_still_non_finite_after_rollback_is_fatal(
            self, tiny_split, tmp_path, monkeypatch):
        """A rollback that does not cure the metrics must abort the run
        with a fatal incident, never journal the span as a good state."""
        import repro.experiments.runner as runner_mod

        real = runner_mod.evaluate_span

        def nan_eval(score_users, span, **kwargs):
            result = real(score_users, span, **kwargs)
            result.hr = float("nan")
            return result

        monkeypatch.setattr(runner_mod, "evaluate_span", nan_eval)
        with pytest.raises(RuntimeError, match="non-finite even after"):
            run_strategy(build(tiny_split), tiny_split, "tiny", "ComiRec-DR",
                         checkpoint_dir=tmp_path)

        journal = Journal.load(SpanRecord, tmp_path)
        # rollback incident first, then the fatal one; span 1 never
        # entered the journal as a restorable state
        assert [i["action"] for i in journal.incidents] == \
            ["rolled-back-to-span-0", "fatal"]
        assert sorted(journal.spans) == [0]

    def test_rollback_without_checkpointing_is_not_armed(self, tiny_split):
        """Without a checkpoint_dir there is no divergence guard — the
        run completes (containment keeps params finite) and records no
        incidents."""
        plan = FaultPlan().nan_loss_at_step(3)
        with active(plan):
            result = run_strategy(build(tiny_split), tiny_split, "tiny",
                                  "ComiRec-DR")
        assert result.incidents == []
        for span_result in result.per_span:
            assert np.isfinite(span_result.hr)
