"""Unit tests for the MSR model base class and the three paper models."""

import numpy as np
import pytest

from repro.autograd import check_gradients, Tensor
from repro.models import (
    ComiRecDR,
    ComiRecSA,
    MIND,
    MODEL_REGISTRY,
    batch_sampled_softmax_loss,
    make_model,
)
from repro.nn import Adam


class TestRegistry:
    def test_paper_names(self):
        assert set(MODEL_REGISTRY) == {"MIND", "ComiRec-DR", "ComiRec-SA"}

    def test_make_model(self):
        model = make_model("MIND", num_items=20, dim=8)
        assert isinstance(model, MIND)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_model("SASRec", num_items=20)

    def test_bad_num_items_rejected(self):
        with pytest.raises(ValueError):
            ComiRecDR(num_items=0)


class TestUserState:
    def test_init_state(self, any_model):
        state = any_model.init_user_state(3)
        assert state.user == 3
        assert state.interests.shape == (3, 12)
        assert state.n_existing == 3
        assert (state.created_span == 0).all()

    def test_begin_span_snapshots(self, any_model):
        state = any_model.init_user_state(0)
        state.interests = state.interests + 1.0
        state.begin_span()
        assert np.allclose(state.prev_interests, state.interests)
        assert state.n_existing == state.num_interests
        assert not state.expanded_this_span

    def test_expand_adds_rows(self, any_model):
        state = any_model.init_user_state(0)
        any_model.expand_user(state, 2, span=4)
        assert state.num_interests == 5
        assert list(state.created_span) == [0, 0, 0, 4, 4]

    def test_expand_zero_noop(self, any_model):
        state = any_model.init_user_state(0)
        before = state.interests.copy()
        any_model.expand_user(state, 0, span=1)
        assert np.allclose(state.interests, before)

    def test_trim_keeps_existing(self, any_model):
        state = any_model.init_user_state(0)
        any_model.expand_user(state, 3, span=1)
        keep = np.array([True, True, True, True, False, True])
        any_model.trim_user(state, keep)
        assert state.num_interests == 5

    def test_trim_refuses_existing_rows(self, any_model):
        state = any_model.init_user_state(0)
        any_model.expand_user(state, 1, span=1)
        keep = np.array([False, True, True, True])
        with pytest.raises(ValueError):
            any_model.trim_user(state, keep)

    def test_trim_all_keep_is_noop(self, any_model):
        state = any_model.init_user_state(0)
        before = state.interests.copy()
        any_model.trim_user(state, np.ones(3, dtype=bool))
        assert np.allclose(state.interests, before)


class TestForward:
    SEQ = [0, 3, 7, 3, 11, 19]

    def test_interest_shape(self, any_model):
        state = any_model.init_user_state(0)
        out = any_model.compute_interests(state, self.SEQ)
        assert out.shape == (3, 12)

    def test_empty_sequence_rejected(self, any_model):
        state = any_model.init_user_state(0)
        with pytest.raises(ValueError):
            any_model.compute_interests(state, [])

    def test_loss_positive_and_finite(self, any_model):
        state = any_model.init_user_state(0)
        H = any_model.compute_interests(state, self.SEQ)
        loss = any_model.loss_targets(H, [5, 9], np.array([[1, 2, 3], [4, 6, 8]]))
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_training_reduces_loss(self, any_model):
        state = any_model.init_user_state(0)
        params = list(any_model.parameters()) + any_model.user_parameters([state])
        opt = Adam(params, lr=0.02)
        negatives = np.array([[1, 2, 3], [4, 6, 8]])
        first = last = None
        for _ in range(25):
            opt.zero_grad()
            H = any_model.compute_interests(state, self.SEQ)
            loss = any_model.loss_targets(H, [5, 9], negatives)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
            last = loss.item()
        assert last < first * 0.9

    def test_score_all_items(self, any_model):
        state = any_model.init_user_state(0)
        scores = any_model.score_all_items(state)
        assert scores.shape == (any_model.num_items,)

    def test_snapshot_interests_updates_state(self, any_model):
        state = any_model.init_user_state(0)
        before = state.interests.copy()
        any_model.snapshot_interests(state, self.SEQ)
        assert not np.allclose(state.interests, before)

    def test_snapshot_empty_sequence_noop(self, any_model):
        state = any_model.init_user_state(0)
        before = state.interests.copy()
        any_model.snapshot_interests(state, [])
        assert np.allclose(state.interests, before)


class TestModelSpecifics:
    def test_mind_random_logits_vary_extractions(self):
        model = MIND(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        a = model.compute_interests(state, [1, 2, 3]).data
        b = model.compute_interests(state, [1, 2, 3]).data
        assert not np.allclose(a, b)  # fresh random logits per extraction

    def test_comirec_dr_deterministic_extraction(self):
        model = ComiRecDR(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        a = model.compute_interests(state, [1, 2, 3]).data
        b = model.compute_interests(state, [1, 2, 3]).data
        assert np.allclose(a, b)

    def test_sa_has_per_user_parameters(self):
        model = ComiRecSA(num_items=30, dim=8, num_interests=3, seed=0)
        state = model.init_user_state(0)
        assert state.sa_weights is not None
        assert state.sa_weights.data.shape == (8, 3)
        assert model.user_parameters([state]) == [state.sa_weights]

    def test_dr_has_no_per_user_parameters(self):
        model = ComiRecDR(num_items=30, dim=8, seed=0)
        state = model.init_user_state(0)
        assert model.user_parameters([state]) == []

    def test_sa_expand_and_trim_sync_weights(self):
        model = ComiRecSA(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        model.expand_user(state, 2, span=1)
        assert state.sa_weights.data.shape == (8, 4)
        state.n_existing = 2
        model.trim_user(state, np.array([True, True, False, True]))
        assert state.sa_weights.data.shape == (8, 3)
        out = model.compute_interests(state, [1, 2, 3])
        assert out.shape == (3, 8)

    def test_sa_out_of_sync_weights_rejected(self):
        model = ComiRecSA(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        state.interests = np.vstack([state.interests, np.zeros((1, 8))])
        with pytest.raises(ValueError):
            model.compute_interests(state, [1, 2])

    def test_sa_gradient_reaches_user_weights(self):
        model = ComiRecSA(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        H = model.compute_interests(state, [1, 2, 3])
        H.sum().backward()
        assert state.sa_weights.grad is not None

    def test_sa_kernel_gradients_match_finite_differences(self, rng):
        """The SA kernel's hand-derived backward, through
        ``compute_interests``: W1, the user's W_u and the embedding rows
        (item 2 occurs twice, so its row accumulates)."""
        model = ComiRecSA(num_items=6, dim=4, num_interests=3,
                          attention_dim=5, seed=0)
        state = model.init_user_state(0)
        upstream = Tensor(rng.normal(size=(3, 4)))

        def weighted_interests(w1, w_u, table):
            return (model.compute_interests(state, [1, 2, 4, 2])
                    * upstream).sum()

        check_gradients(weighted_interests,
                        [model.w1, state.sa_weights, model.item_emb.weight])

    def test_mind_gradient_reaches_bilinear(self):
        model = MIND(num_items=30, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        H = model.compute_interests(state, [1, 2, 3])
        H.sum().backward()
        assert model.bilinear.grad is not None
        assert model.item_emb.weight.grad is not None


def one_target_loss(interests, target, negatives):
    """Eq. 6 for a single target: the one-row case of the batch loss."""
    return batch_sampled_softmax_loss(
        Tensor(interests), Tensor(target[None]), Tensor(negatives[None]))


class TestSampledSoftmax:
    def test_single_matches_manual(self, rng):
        interests = rng.normal(size=(3, 4))
        target = rng.normal(size=4)
        negs = rng.normal(size=(5, 4))
        loss = one_target_loss(interests, target, negs).item()

        # manual
        logits = interests @ target
        beta = np.exp(logits - logits.max()); beta /= beta.sum()
        v = beta @ interests
        all_logits = np.concatenate([[v @ target], negs @ v])
        expected = -(all_logits[0] - np.log(np.exp(all_logits - all_logits.max()).sum()) - all_logits.max())
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_batch_matches_mean_of_singles(self, rng):
        interests = rng.normal(size=(3, 4))
        targets = rng.normal(size=(2, 4))
        negs = rng.normal(size=(2, 5, 4))
        batch = batch_sampled_softmax_loss(
            Tensor(interests), Tensor(targets), Tensor(negs)).item()
        singles = np.mean([
            one_target_loss(interests, targets[i], negs[i]).item()
            for i in range(2)
        ])
        assert batch == pytest.approx(singles, rel=1e-9)

    def test_loss_decreases_when_target_score_grows(self, rng):
        interests = rng.normal(size=(2, 4))
        target = rng.normal(size=4)
        negs = rng.normal(size=(5, 4))
        base = one_target_loss(interests, target, negs).item()
        aligned = one_target_loss(
            np.vstack([target * 3, interests[1]]), target, negs).item()
        assert aligned < base

    def test_batch_gradients(self, rng):
        interests = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        negs = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        check_gradients(batch_sampled_softmax_loss, [interests, targets, negs])
