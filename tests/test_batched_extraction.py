"""Equivalence and behavior tests for the batched inference fast path.

``TrainConfig.batched_snapshots`` refreshes a span's snapshots with
:func:`batched_snapshot_interests`: one :func:`batched_compute_interests`
over all users under ``no_grad()``, padded over both the item axis and
the capsule axis.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, is_grad_enabled, no_grad
from repro.incremental.imsr import project_new_interests
from repro.models import (
    ComiRecDR,
    batched_compute_interests,
    batched_snapshot_interests,
)


@pytest.fixture()
def model(tiny_split):
    return ComiRecDR(tiny_split.num_items, dim=12, num_interests=3, seed=0)


def make_jobs(model, rng, count=6, expand_some=True):
    jobs = []
    for i in range(count):
        state = model.init_user_state(i)
        if expand_some and i % 2 == 0:
            model.expand_user(state, 1 + i % 3, span=1)
        length = int(rng.integers(2, 12))
        seq = rng.integers(0, model.num_items, size=length).tolist()
        jobs.append((state, seq))
    return jobs


def extract(model, jobs):
    """Per-job (K_u, d) interests from one no-grad batched extraction."""
    with no_grad():
        interests, _, ks = batched_compute_interests(model, jobs)
    return [interests.data[b, :k] for b, k in enumerate(ks)]


class TestEquivalence:
    def test_matches_per_user_extraction(self, model, rng):
        jobs = make_jobs(model, rng)
        batched = extract(model, jobs)
        for (state, seq), fast in zip(jobs, batched):
            slow = model.compute_interests(state, seq).data
            assert fast.shape == slow.shape
            assert np.allclose(fast, slow, atol=1e-10), (
                f"user {state.user}: max err {np.abs(fast - slow).max()}"
            )

    def test_variable_interest_counts(self, model, rng):
        jobs = make_jobs(model, rng, expand_some=True)
        shapes = {b[0].num_interests for b in jobs}
        assert len(shapes) > 1  # the batch really is ragged
        for (state, _), fast in zip(jobs, extract(model, jobs)):
            assert fast.shape == (state.num_interests, model.dim)

    def test_single_job_batch(self, model, rng):
        jobs = make_jobs(model, rng, count=1)
        fast = extract(model, jobs)[0]
        slow = model.compute_interests(jobs[0][0], jobs[0][1]).data
        assert np.allclose(fast, slow, atol=1e-10)


    @pytest.mark.parametrize("normalize", ["items", "capsules"])
    def test_padded_group_matches_per_user(self, tiny_split, normalize):
        """Mixed sequence lengths and K_u in one padded group: each
        user's interests and the parameter gradients equal the B=1
        per-user extraction's, under either routing normalization."""
        def build():
            return ComiRecDR(tiny_split.num_items, dim=12, num_interests=3,
                             seed=0, routing_normalize=normalize)

        grouped, single = build(), build()
        jobs_g = make_jobs(grouped, np.random.default_rng(5))
        jobs_s = make_jobs(single, np.random.default_rng(5))
        assert len({state.num_interests for state, _ in jobs_g}) > 1
        assert len({len(seq) for _, seq in jobs_g}) > 1

        interests, capsule_mask, ks = batched_compute_interests(grouped,
                                                                jobs_g)
        upstream = np.random.default_rng(6).normal(size=interests.shape)
        upstream *= capsule_mask[:, :, None]
        (interests * Tensor(upstream)).sum().backward()
        for b, (state, seq) in enumerate(jobs_s):
            per_user = single.compute_interests(state, seq)
            np.testing.assert_allclose(interests.data[b, :ks[b]],
                                       per_user.data, rtol=0, atol=1e-12)
            (per_user * Tensor(upstream[b, :ks[b]])).sum().backward()
        for (name, got), (_, want) in zip(grouped.named_parameters(),
                                          single.named_parameters()):
            np.testing.assert_allclose(got.grad, want.grad, rtol=0,
                                       atol=1e-12, err_msg=name)


class TestValidation:
    def test_rejects_empty_sequence(self, model):
        state = model.init_user_state(0)
        with pytest.raises(ValueError):
            batched_compute_interests(model, [(state, [])])

    def test_empty_batch(self, model):
        with pytest.raises(ValueError):
            batched_compute_interests(model, [])


def per_user_snapshots(model, jobs, interests_hook=None):
    """Each job's interests as the per-user refresh stores them, taken on
    copies of the states."""
    reference = []
    for state, seq in jobs:
        clone = model.init_user_state(state.user)
        clone.interests = state.interests.copy()
        clone.created_span = state.created_span.copy()
        model.snapshot_interests(clone, seq, interests_hook=interests_hook)
        reference.append(clone.interests)
    return reference


class TestSnapshotRefresh:
    def test_matches_per_user_snapshot(self, model, rng):
        jobs = make_jobs(model, rng)
        reference = per_user_snapshots(model, jobs)
        batched_snapshot_interests(model, jobs)
        for (state, _), expected in zip(jobs, reference):
            assert np.allclose(state.interests, expected, atol=1e-10)

    def test_skips_empty_sequences(self, model, rng):
        state = model.init_user_state(0)
        before = state.interests.copy()
        batched_snapshot_interests(model, [(state, [])])
        assert np.allclose(state.interests, before)

    def test_hook_applies_on_both_paths(self, model, rng):
        """IMSR refreshes through its PIT hook; both refreshes project each
        user's new interests before storing them."""
        def pit(state, interests):
            return project_new_interests(interests, state.n_existing)

        jobs = make_jobs(model, rng)
        assert any(state.num_interests > state.n_existing
                   for state, _ in jobs)
        reference = per_user_snapshots(model, jobs, interests_hook=pit)
        batched_snapshot_interests(model, jobs, interests_hook=pit)
        for (state, _), expected in zip(jobs, reference):
            assert np.allclose(state.interests, expected, atol=1e-10)
            new = state.interests[state.n_existing:]
            assert np.allclose(new @ state.interests[:state.n_existing].T,
                               0.0, atol=1e-8)


class TestSnapshotsBuildNoGraph:
    """A snapshot is a detached read: grad must be off while its interests
    are computed, or every refresh records a throwaway backward graph."""

    @staticmethod
    def spy(modes, compute):
        def recording(*args, **kwargs):
            modes.append(is_grad_enabled())
            return compute(*args, **kwargs)
        return recording

    @pytest.mark.parametrize("batched", [False, True])
    def test_refresh_snapshots(self, tiny_split, monkeypatch, batched):
        from repro.experiments import make_strategy
        from repro.incremental import TrainConfig
        from repro.models import batched_train

        config = TrainConfig(seed=0, batched_snapshots=batched)
        strategy = make_strategy("FT", "ComiRec-DR", tiny_split, config,
                                 model_kwargs={"dim": 8, "num_interests": 2})
        modes = []
        if batched:
            monkeypatch.setattr(batched_train, "batched_compute_interests",
                                self.spy(modes, batched_compute_interests))
        else:
            monkeypatch.setattr(strategy.model, "compute_interests",
                                self.spy(modes,
                                         strategy.model.compute_interests))
        strategy._refresh_snapshots(tiny_split.pretrain)
        assert modes and not any(modes)

    def test_snapshot_interests(self, model, rng, monkeypatch):
        modes = []
        monkeypatch.setattr(model, "compute_interests",
                            self.spy(modes, model.compute_interests))
        model.snapshot_interests(model.init_user_state(0), [1, 2, 3])
        assert modes == [False]
