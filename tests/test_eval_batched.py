"""Vectorized evaluation: ranks, metrics, batched scoring, evaluator.

The batched pipeline must be *bit-identical* to the historical per-item
evaluator: same pessimistic tie-breaking, same ``1/log2(rank+2)``
floats.  Property tests drive every vectorized function against its
scalar counterpart on tied inputs.
"""

import numpy as np
import pytest

from repro.eval import evaluate_span
from repro.eval.metrics import (
    hit_at_k,
    metrics_from_ranks,
    ndcg_at_k,
    rank_of_target,
    ranks_of_user_targets,
)
from repro.experiments import make_strategy
from repro.incremental import TrainConfig
from repro.incremental.strategy import IncrementalStrategy
from repro.models.aggregator import score_items, score_items_batch


def tied_scores(rng, n):
    """Scores with heavy ties: quantized draws exercise the >= breaking."""
    return rng.integers(0, max(2, n // 4), size=n).astype(np.float64)


class TestRanksOfTargets:
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_matches_scalar_rank(self, rng, n):
        """Many targets of one user, down to a one-item catalog."""
        scores = tied_scores(rng, n)
        targets = rng.integers(0, n, size=3 * n)
        got = ranks_of_user_targets(scores[None, :],
                                    np.zeros_like(targets), targets)
        want = [rank_of_target(scores, int(t)) for t in targets]
        assert got.tolist() == want


class TestRanksOfUserTargets:
    def test_matches_scalar_rank_per_case(self, rng):
        num_users, n = 9, 30
        matrix = np.stack([tied_scores(rng, n) for _ in range(num_users)])
        case_users = rng.integers(0, num_users, size=120)
        case_items = rng.integers(0, n, size=120)
        got = ranks_of_user_targets(matrix, case_users, case_items)
        want = [rank_of_target(matrix[u], int(i))
                for u, i in zip(case_users, case_items)]
        assert got.tolist() == want

    def test_chunking_boundary(self, rng, monkeypatch):
        import repro.eval.metrics as metrics

        monkeypatch.setattr(metrics, "_RANK_CHUNK_ELEMENTS", 7)
        matrix = np.stack([tied_scores(rng, 13) for _ in range(4)])
        case_users = rng.integers(0, 4, size=25)
        case_items = rng.integers(0, 13, size=25)
        got = ranks_of_user_targets(matrix, case_users, case_items)
        want = [rank_of_target(matrix[u], int(i))
                for u, i in zip(case_users, case_items)]
        assert got.tolist() == want

    def test_empty_cases(self, rng):
        matrix = np.stack([tied_scores(rng, 5)])
        out = ranks_of_user_targets(matrix, np.zeros(0, np.int64),
                                    np.zeros(0, np.int64))
        assert out.shape == (0,)


class TestMetricsFromRanks:
    def test_bit_equal_to_scalar_metrics(self):
        ranks = np.arange(0, 60, dtype=np.int64)
        hits, ndcgs = metrics_from_ranks(ranks, k=20)
        for rank, hit, ndcg in zip(ranks, hits, ndcgs):
            assert hit == hit_at_k(int(rank), 20)
            assert ndcg == ndcg_at_k(int(rank), 20)


class TestScoreItemsBatch:
    def make_interests(self, rng, d, ks):
        return [rng.normal(size=(k, d)) if k else np.zeros((0, d))
                for k in ks]

    def test_exact_mode_is_bitwise_identical(self, rng):
        emb = rng.normal(size=(60, 8))
        interests = self.make_interests(rng, 8, [0, 1, 2, 3, 3, 5, 2])
        for dtype in (np.float64, np.float32):
            emb_d = emb.astype(dtype)
            interests_d = [iv.astype(dtype) for iv in interests]
            out = score_items_batch(interests_d, emb_d)
            # float32 scores stay float32: half the bytes of float64
            assert out.dtype == dtype
            for u, iv in enumerate(interests_d):
                assert np.array_equal(out[u], score_items(iv, emb_d))

    def test_empty_user_list(self, rng):
        emb = rng.normal(size=(10, 4))
        assert score_items_batch([], emb).shape == (0, 10)


@pytest.fixture(scope="module")
def trained(tiny_split):
    config = TrainConfig(epochs_pretrain=1, epochs_incremental=1,
                         num_negatives=4, seed=0)
    strategy = make_strategy("IMSR", "ComiRec-DR", tiny_split, config,
                             model_kwargs={"dim": 10, "num_interests": 2})
    strategy.pretrain()
    return strategy


class TestEvaluateSpanBatched:
    def legacy(self, strategy, span, k=20, targets="all"):
        """The historical evaluator: per-user scores, per-item ranks."""
        hits, ndcgs = [], []
        for user in span.user_ids():
            data = span.users[user]
            items = data.all_items if targets == "all" else (
                [data.test_item] if data.test_item is not None else [])
            if not items:
                continue
            scores = strategy.score_user(user)
            for item in items:
                rank = rank_of_target(scores, item)
                hits.append(hit_at_k(rank, k))
                ndcgs.append(ndcg_at_k(rank, k))
        return float(np.mean(hits)), float(np.mean(ndcgs)), len(hits)

    def test_batched_path_is_bit_identical_to_legacy(self, trained,
                                                     tiny_split):
        span = tiny_split.spans[1]
        hr, ndcg, n = self.legacy(trained, span)
        result = evaluate_span(trained.score_users, span, targets="all")
        assert result.hr == hr
        assert result.ndcg == ndcg
        assert result.num_cases == n

    def test_strict_protocol_also_identical(self, trained, tiny_split):
        span = tiny_split.spans[2]
        hr, ndcg, n = self.legacy(trained, span, targets="test")
        result = evaluate_span(trained.score_users, span, targets="test")
        assert result.hr == hr
        assert result.ndcg == ndcg
        assert result.num_cases == n


class TestScoreUsersOverride:
    def test_score_user_override_routes_through_override(self, trained):
        class Custom(type(trained)):
            def score_user(self, user):
                return -super().score_user(user)

        custom = object.__new__(Custom)
        custom.__dict__.update(trained.__dict__)
        users = list(custom.states)[:5]
        got = custom.score_users(users)
        want = np.stack([custom.score_user(u) for u in users])
        assert np.array_equal(got, want)

    def test_base_strategy_uses_fast_path(self, trained):
        assert (type(trained).score_user is IncrementalStrategy.score_user)
        users = list(trained.states)[:5]
        got = trained.score_users(users)
        want = np.stack([trained.score_user(u) for u in users])
        assert np.array_equal(got, want)
