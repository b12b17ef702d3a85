"""Micro-batched training engine: equivalence with the per-user path.

``users_per_batch=1`` (the default) must run the untouched historical
loop; the grouped engine must compute the *same* loss and gradients as
accumulating per-user steps (one optimizer step per group is the only
semantic difference), preserve per-user RNG draw order, honor the IMSR
hooks, and compose with journaled crash/resume.
"""

import numpy as np
import pytest

from repro.data import NegativeSampler
from repro.experiments import make_strategy, run_strategy
from repro.faults import FaultPlan, SimulatedCrash, active
from repro.incremental import TrainConfig
from repro.lifelong import LimaRec, LimaRecModel
from repro.models import (
    ComiRecDR,
    ComiRecSA,
    MIND,
    batched_compute_interests,
    batched_loss_targets,
    supports_batched_training,
)

MODEL_CLASSES = {"MIND": MIND, "ComiRec-DR": ComiRecDR,
                 "ComiRec-SA": ComiRecSA}


def twin_models(name, count=2, **kwargs):
    """Identically-seeded copies: per-user and batched arms must start
    from the same parameters *and* the same RNG stream position."""
    cls = MODEL_CLASSES[name]
    return [cls(80, dim=10, num_interests=3, seed=3, **kwargs)
            for _ in range(count)]


def make_jobs(model, rng, count=5):
    jobs = []
    for user in range(count):
        state = model.init_user_state(user)
        if user % 2 == 0:
            model.expand_user(state, 1 + user % 2, span=1)
        seq = rng.integers(0, model.num_items,
                           size=int(rng.integers(3, 10))).tolist()
        jobs.append((state, seq))
    return jobs


def fast_config(**overrides):
    base = dict(epochs_pretrain=1, epochs_incremental=1,
                num_negatives=4, seed=0)
    return TrainConfig(**{**base, **overrides})


def build(tiny_split, config, model="ComiRec-DR"):
    return make_strategy("IMSR", model, tiny_split, config,
                         model_kwargs={"dim": 10, "num_interests": 2})


class TestDispatch:
    def test_default_config_is_per_user(self):
        assert TrainConfig().users_per_batch == 1
        assert TrainConfig().sparse_adam is False
        assert TrainConfig().batched_snapshots is False

    def test_per_user_mode_never_calls_batched_machinery(self, tiny_split,
                                                         monkeypatch):
        strategy = build(tiny_split, fast_config())

        def boom(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("batched path used with users_per_batch=1")

        monkeypatch.setattr(strategy.sampler, "sample_batch", boom)
        monkeypatch.setattr("repro.models.batched_train."
                            "batched_compute_interests", boom)
        strategy.pretrain()

    def test_supported_families(self):
        assert supports_batched_training(twin_models("MIND", 1)[0])
        assert supports_batched_training(twin_models("ComiRec-SA", 1)[0])
        assert supports_batched_training(twin_models("ComiRec-DR", 1)[0])
        capsules = ComiRecDR(80, dim=10, num_interests=3, seed=3,
                             routing_normalize="capsules")
        assert supports_batched_training(capsules)

    def test_unsupported_model_falls_back_to_per_user(self, tiny_split,
                                                      monkeypatch):
        """An MSRModel with no batched extraction (LimaRec's) trains
        through the per-user loop even with ``users_per_batch > 1``."""
        model = LimaRecModel(tiny_split.num_items, dim=10, num_interests=2,
                             seed=0)
        assert not supports_batched_training(model)
        strategy = LimaRec(model, tiny_split, fast_config(users_per_batch=4))

        def boom(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("grouped path used for unsupported model")

        monkeypatch.setattr(strategy.sampler, "sample_batch", boom)
        strategy.pretrain()  # falls back, completes


class TestExtractionEquivalence:
    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_batched_matches_per_user(self, name):
        model_a, model_b = twin_models(name)
        jobs_a = make_jobs(model_a, np.random.default_rng(1))
        jobs_b = make_jobs(model_b, np.random.default_rng(1))
        slow = [model_a.compute_interests(s, seq) for s, seq in jobs_a]
        fast, capsule_mask, ks = batched_compute_interests(model_b, jobs_b)
        assert capsule_mask.shape == fast.data.shape[:2]
        for b, tensor in enumerate(slow):
            assert ks[b] == tensor.data.shape[0]
            assert capsule_mask[b, :ks[b]].all()
            assert not capsule_mask[b, ks[b]:].any()
            assert np.allclose(fast.data[b, :ks[b]], tensor.data,
                               atol=1e-10), (
                f"user {b}: max err "
                f"{np.abs(fast.data[b, :ks[b]] - tensor.data).max()}")


class TestLossEquivalence:
    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_group_loss_and_grads_match_accumulated_per_user(self, name):
        rng = np.random.default_rng(2)
        model_a, model_b = twin_models(name)
        jobs_a = make_jobs(model_a, np.random.default_rng(1))
        jobs_b = make_jobs(model_b, np.random.default_rng(1))
        targets = [rng.integers(0, 80, size=int(rng.integers(1, 4))).tolist()
                   for _ in jobs_a]
        negatives = [np.stack([np.arange(5) + t for t in ts])
                     for ts in targets]

        total = 0.0
        for (state, seq), ts, negs in zip(jobs_a, targets, negatives):
            interests = model_a.compute_interests(state, seq)
            loss = model_a.loss_targets(interests, ts, negs)
            loss.backward()
            total += float(loss.data)

        fast, capsule_mask, _ = batched_compute_interests(model_b, jobs_b)
        group_loss = batched_loss_targets(model_b, fast, capsule_mask,
                                          targets, negatives)
        group_loss.backward()

        assert float(group_loss.data) == pytest.approx(total, rel=1e-8)
        grad_a = model_a.item_emb.weight.grad
        grad_b = model_b.item_emb.weight.grad
        assert np.allclose(grad_a, grad_b, atol=1e-8), (
            f"max grad err {np.abs(grad_a - grad_b).max()}")


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_grouped_imsr_run_completes(self, tiny_split, name):
        config = fast_config(users_per_batch=4)
        result = run_strategy(build(tiny_split, config, name), tiny_split,
                              "tiny", name)
        reference = run_strategy(build(tiny_split, fast_config(), name),
                                 tiny_split, "tiny", name)
        assert np.isfinite(result.hr) and np.isfinite(result.ndcg)
        assert 0.0 <= result.hr <= 1.0
        # same protocol, same cases — only the step granularity differs
        for ours, theirs in zip(result.per_span, reference.per_span):
            assert ours.num_cases == theirs.num_cases

    def test_full_engine_run(self, tiny_split):
        config = fast_config(users_per_batch=4, sparse_adam=True,
                             batched_snapshots=True)
        result = run_strategy(build(tiny_split, config), tiny_split,
                              "tiny", "ComiRec-DR")
        assert np.isfinite(result.hr) and np.isfinite(result.ndcg)

    def test_batched_snapshots_close_to_per_user_refresh(self, tiny_split):
        def pretrained(batched):
            strategy = build(tiny_split,
                             fast_config(batched_snapshots=batched))
            strategy.pretrain()
            return strategy

        loop, batched = pretrained(False), pretrained(True)
        # training is identical (same seeds, same per-user loop); only
        # the final snapshot refresh differs, and only by float noise
        for user, state in loop.states.items():
            other = batched.states[user].interests
            assert other.shape == state.interests.shape
            assert np.allclose(state.interests, other, atol=1e-8)


class TestSampleBatch:
    def test_rows_match_per_target_semantics(self):
        sampler = NegativeSampler(50, num_negatives=8,
                                  rng=np.random.default_rng(0))
        targets = [3, 3, 49, 0]
        batch = sampler.sample_batch(targets)
        assert batch.shape == (4, 8)
        for row, target in zip(batch, targets):
            assert target not in row
            assert ((0 <= row) & (row < 50)).all()

    def test_collision_redraw_terminates(self):
        # two items: every draw has a 50% collision chance per slot
        sampler = NegativeSampler(2, num_negatives=4,
                                  rng=np.random.default_rng(1))
        batch = sampler.sample_batch([0, 1, 0])
        assert (batch[0] == 1).all()
        assert (batch[1] == 0).all()
        assert (batch[2] == 1).all()


class TestCrashResume:
    def test_batched_crash_at_boundary_then_resume(self, tiny_split,
                                                   tmp_path):
        config = fast_config(users_per_batch=4)
        baseline = run_strategy(build(tiny_split, config), tiny_split,
                                "tiny", "ComiRec-DR")
        with active(FaultPlan(seed=2).crash_at_span_boundary(2)):
            with pytest.raises(SimulatedCrash):
                run_strategy(build(tiny_split, config), tiny_split, "tiny",
                             "ComiRec-DR", checkpoint_dir=tmp_path)
        resumed = run_strategy(build(tiny_split, config), tiny_split, "tiny",
                               "ComiRec-DR", checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_spans == [1, 2]
        assert resumed.hr == baseline.hr
        assert resumed.ndcg == baseline.ndcg
        for ours, theirs in zip(resumed.per_span, baseline.per_span):
            assert ours.hr == theirs.hr
            assert ours.ndcg == theirs.ndcg
