"""Failure-injection and adversarial-input tests.

An incremental system ingests whatever the stream brings; these tests
verify the pipeline degrades gracefully instead of poisoning state.
"""

import numpy as np
import pytest

from repro.data import Interaction, split_time_spans
from repro.data.schema import SpanDataset, UserSpanData
from repro.eval import evaluate_span
from repro.incremental import FineTune, IMSR, TrainConfig
from repro.incremental.strategy import build_payloads
from repro.models import ComiRecDR, ComiRecSA


def dr_model(split, **kw):
    kw.setdefault("dim", 12)
    kw.setdefault("num_interests", 3)
    kw.setdefault("seed", 0)
    return ComiRecDR(split.num_items, **kw)


class TestNonFiniteContainment:
    def test_nan_loss_step_is_skipped(self, tiny_split, train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        payloads = build_payloads(tiny_split.pretrain, train_config)[:3]

        def poison(state, interests, payload):
            from repro.autograd import Tensor
            return Tensor(float("nan"), requires_grad=False) * interests.sum()

        before = strategy.model.state_dict()
        strategy._train(payloads, epochs=1, loss_hook=poison)
        # every step was skipped -> parameters untouched
        for name, value in strategy.model.state_dict().items():
            assert np.allclose(value, before[name]), name

    def test_corrupted_embedding_row_does_not_spread(self, tiny_split,
                                                     train_config):
        strategy = FineTune(dr_model(tiny_split), tiny_split, train_config)
        strategy.model.item_emb.weight.data[0] = np.inf
        strategy.pretrain()  # must not raise
        # users whose sequences avoid item 0 keep finite interests
        finite_users = sum(
            np.isfinite(s.interests).all() for s in strategy.states.values()
        )
        assert finite_users > 0

    def test_huge_learning_rate_stays_finite_with_clipping(self, tiny_split):
        config = TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                             lr=5.0, grad_clip=1.0, seed=0)
        strategy = FineTune(dr_model(tiny_split), tiny_split, config)
        strategy.pretrain()
        assert np.isfinite(strategy.model.item_emb.weight.data).all()


class TestDegenerateData:
    def test_empty_span_trains_without_error(self, tiny_split, train_config):
        import copy

        split = copy.deepcopy(tiny_split)  # never mutate the shared fixture
        strategy = FineTune(dr_model(split), split, train_config)
        strategy.pretrain()
        split.spans[0].users.clear()
        strategy.train_span(1)  # span now empty: no-op, no crash
        assert 1 in strategy.train_times

    def test_single_interaction_users_skipped_in_payloads(self, train_config):
        span = SpanDataset(span_index=1)
        span.users[0] = UserSpanData(user=0, train_items=[5])
        assert build_payloads(span, train_config) == []

    def test_duplicate_only_sequence(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config)
        state = strategy.states[0]
        interests = strategy.model.compute_interests(state, [7, 7, 7, 7])
        assert np.isfinite(interests.data).all()

    def test_evaluation_with_all_equal_scores_scores_zero_hits(self):
        span = SpanDataset(span_index=1)
        span.users[0] = UserSpanData(user=0, train_items=[1], test_item=2)
        result = evaluate_span(lambda users: np.zeros((len(users), 100)), span,
                               k=20)
        assert result.hr == 0.0  # pessimistic tie-breaking

    def test_one_user_stream_pipeline(self, train_config):
        interactions = [Interaction(0, i % 20, t / 40.0)
                        for i, t in enumerate(range(40))]
        split = split_time_spans(interactions, num_items=20, T=2, alpha=0.5)
        strategy = FineTune(dr_model(split), split, train_config)
        strategy.pretrain()
        strategy.train_span(1)
        assert np.isfinite(strategy.score_user(0)).all()

    def test_sa_user_never_in_any_span(self, tiny_split, train_config):
        model = ComiRecSA(tiny_split.num_items, dim=12, num_interests=3,
                          seed=0)
        strategy = FineTune(model, tiny_split, train_config)
        strategy.pretrain()
        # score a user that exists in states but may lack span data
        for user in strategy.states:
            scores = strategy.score_user(user)
            assert scores.shape == (tiny_split.num_items,)
            assert np.isfinite(scores).all()


class TestExtremeHyperparameters:
    def test_imsr_delta_k_zero(self, tiny_split, train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        delta_k=0, c1=0.0)
        strategy.pretrain()
        strategy.train_span(1)
        assert set(strategy.interest_counts().values()) == {3}

    def test_imsr_negative_kd_weight_treated_as_off(self, tiny_split,
                                                    train_config):
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        kd_weight=-1.0)
        payload = build_payloads(tiny_split.spans[0], train_config)[0]
        state = strategy.states[payload.user]
        interests = strategy.model.compute_interests(state, payload.history)
        assert strategy._retention_loss(state, interests, payload) is None

    def test_max_interests_one_below_delta(self, tiny_split, train_config):
        # cap tighter than K0 + delta_k: expansion must never trigger
        strategy = IMSR(dr_model(tiny_split), tiny_split, train_config,
                        c1=0.0, delta_k=3, max_interests=4)
        strategy.pretrain()
        strategy.train_span(1)
        assert all(s.num_interests == 3 for s in strategy.states.values())
