"""Unit tests for metrics, the span evaluator, and significance tests."""

import numpy as np
import pytest

from repro.data.schema import SpanDataset, UserSpanData
from repro.eval import (
    EvalResult,
    average_results,
    evaluate_span,
    hit_at_k,
    metrics_at_k,
    ndcg_at_k,
    paired_t_test,
    rank_of_target,
)


class TestRank:
    def test_best_item_rank_zero(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 1) == 0

    def test_worst_item(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert rank_of_target(scores, 0) == 2

    def test_ties_are_pessimistic(self):
        scores = np.zeros(5)
        assert rank_of_target(scores, 2) == 4  # everything ties above


class TestMetrics:
    def test_hit_inside_and_outside(self):
        assert hit_at_k(19, k=20) == 1.0
        assert hit_at_k(20, k=20) == 0.0

    def test_ndcg_top_rank_is_one(self):
        assert ndcg_at_k(0, k=20) == 1.0

    def test_ndcg_decreases_with_rank(self):
        values = [ndcg_at_k(r, k=20) for r in range(20)]
        assert values == sorted(values, reverse=True)

    def test_ndcg_zero_outside(self):
        assert ndcg_at_k(25, k=20) == 0.0

    def test_metrics_at_k(self):
        scores = np.array([0.3, 0.9, 0.1])
        hit, ndcg = metrics_at_k(scores, 1, k=1)
        assert hit == 1.0 and ndcg == 1.0
        hit, ndcg = metrics_at_k(scores, 2, k=1)
        assert hit == 0.0 and ndcg == 0.0


def make_span(cases):
    """cases: {user: (train_items, test_item)}"""
    span = SpanDataset(span_index=1)
    for user, (train, test) in cases.items():
        span.users[user] = UserSpanData(user=user, train_items=train,
                                        test_item=test)
    return span


class TestEvaluator:
    def score_fn_factory(self, per_user_scores):
        return lambda users: np.stack([per_user_scores[u] for u in users])

    def test_perfect_scores(self):
        span = make_span({0: ([1], 2), 1: ([1], 3)})
        scores = {0: np.array([0, 0, 9, 0, 0.]), 1: np.array([0, 0, 0, 9, 0.])}
        result = evaluate_span(self.score_fn_factory(scores), span, k=1)
        assert result.hr == 1.0
        assert result.ndcg == 1.0
        assert result.num_cases == 2

    def test_users_without_test_item_skipped(self):
        span = make_span({0: ([1], 2), 1: ([1], None)})
        scores = {0: np.array([0, 0, 9.0]), 1: np.zeros(3)}
        result = evaluate_span(self.score_fn_factory(scores), span, k=1)
        assert result.num_cases == 1

    def test_item_filter(self):
        span = make_span({0: ([1], 2), 1: ([1], 3)})
        scores = {u: np.zeros(5) for u in (0, 1)}
        result = evaluate_span(self.score_fn_factory(scores), span,
                               item_filter=lambda u, i: i == 2)
        assert result.num_cases == 1

    def test_targets_all_counts_every_item(self):
        span = make_span({0: ([1, 4], 2)})
        scores = {0: np.zeros(6)}
        result = evaluate_span(self.score_fn_factory(scores), span,
                               targets="all")
        assert result.num_cases == 3  # 2 train + 1 test

    def test_bad_targets_rejected(self):
        span = make_span({0: ([1], 2)})
        with pytest.raises(ValueError):
            evaluate_span(lambda users: np.zeros((len(users), 3)), span, targets="bogus")

    def test_per_user_kept(self):
        span = make_span({0: ([1], 2)})
        scores = {0: np.array([0, 0, 9.0])}
        result = evaluate_span(self.score_fn_factory(scores), span, k=1,
                               keep_per_user=True)
        assert result.per_user[0] == (1.0, 1.0)

    def test_empty_result(self):
        span = make_span({})
        result = evaluate_span(lambda users: np.zeros((len(users), 3)), span)
        assert result.hr == 0.0 and result.num_cases == 0

    def test_average_results(self):
        a = EvalResult(hr=0.2, ndcg=0.1, num_cases=10)
        b = EvalResult(hr=0.4, ndcg=0.3, num_cases=10)
        avg = average_results([a, b])
        assert avg.hr == pytest.approx(0.3)
        assert avg.ndcg == pytest.approx(0.2)
        assert avg.num_cases == 20

    def test_average_skips_empty_spans(self):
        a = EvalResult(hr=0.2, ndcg=0.1, num_cases=10)
        empty = EvalResult(hr=0.0, ndcg=0.0, num_cases=0)
        avg = average_results([a, empty])
        assert avg.hr == pytest.approx(0.2)


class TestSignificance:
    def test_identical_samples_not_significant(self):
        a = [1.0, 0.0, 1.0, 0.0]
        t, p = paired_t_test(a, a)
        assert p == 1.0

    def test_clearly_better_is_significant(self, rng):
        b = rng.uniform(size=100)
        a = b + 0.5 + 0.01 * rng.uniform(size=100)
        t, p = paired_t_test(a, b)
        assert t > 0 and p < 0.05

    def test_direction_matters(self, rng):
        b = rng.uniform(size=100)
        a = b + 0.5 + 0.01 * rng.uniform(size=100)
        t, p = paired_t_test(b, a)
        assert t < 0 and p < 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])

    def test_tiny_sample_returns_neutral(self):
        t, p = paired_t_test([1.0], [0.0])
        assert p == 1.0
