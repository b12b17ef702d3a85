"""Ranking metrics: hit ratio and NDCG at a cutoff (paper: top-20)."""

from __future__ import annotations

import numpy as np


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """0-based rank of ``target`` under descending ``scores``.

    Ties are broken pessimistically (equal-scored items count as ranked
    above the target) so metrics never benefit from degenerate constant
    scores: the rank is everything ``>=`` the target, less the target
    itself.
    """
    return int(np.count_nonzero(scores >= scores[target])) - 1


def hit_at_k(rank: int, k: int = 20) -> float:
    """1.0 if the 0-based ``rank`` falls inside the top-``k`` else 0.0."""
    return 1.0 if rank < k else 0.0


def ndcg_at_k(rank: int, k: int = 20) -> float:
    """NDCG@k with a single relevant item: ``1 / log2(rank + 2)`` if hit."""
    if rank >= k:
        return 0.0
    return 1.0 / np.log2(rank + 2.0)


def metrics_at_k(scores: np.ndarray, target: int, k: int = 20) -> tuple:
    """Convenience: ``(hit@k, ndcg@k)`` for one test instance."""
    rank = rank_of_target(scores, target)
    return hit_at_k(rank, k), ndcg_at_k(rank, k)


#: cap on the (targets x catalog) comparison matrix a single vectorized
#: chunk may allocate (elements); keeps peak memory bounded when ranking
#: thousands of targets against a large catalog
_RANK_CHUNK_ELEMENTS = 4_000_000


def ranks_of_user_targets(score_matrix: np.ndarray, case_users: np.ndarray,
                          case_items: np.ndarray) -> np.ndarray:
    """Ranks for a flat list of (user row, target item) test cases.

    ``score_matrix`` holds one catalog-score row per user;
    ``case_users[j]`` indexes the row and ``case_items[j]`` the target
    of case ``j``.  Each case's rank is exactly
    ``rank_of_target(score_matrix[case_users[j]], case_items[j])`` — the
    same ``>=`` comparisons and integer count, fused
    across *all* users' cases in one chunked pass instead of a Python
    call per user.  This is the whole-span fast path behind
    :func:`repro.eval.evaluate_span`.
    """
    case_users = np.asarray(case_users, dtype=np.int64)
    case_items = np.asarray(case_items, dtype=np.int64)
    if case_users.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = max(1, score_matrix.shape[1])
    step = max(1, _RANK_CHUNK_ELEMENTS // n)
    ranks = np.empty(case_users.shape[0], dtype=np.int64)
    for lo in range(0, case_users.shape[0], step):
        users = case_users[lo:lo + step]
        rows = score_matrix[users]                     # (m, N)
        t = rows[np.arange(users.shape[0]), case_items[lo:lo + step]]
        ranks[lo:lo + step] = (rows >= t[:, None]).sum(axis=1) - 1
    return ranks


def metrics_from_ranks(ranks: np.ndarray, k: int = 20) -> tuple:
    """Vectorized ``(hits, ndcgs)`` for an array of 0-based ranks.

    Elementwise identical to :func:`hit_at_k` / :func:`ndcg_at_k` — the
    same ``1 / log2(rank + 2)`` expression, so the floats are bit-equal.
    """
    ranks = np.asarray(ranks)
    hit = ranks < k
    hits = hit.astype(np.float64)
    ndcgs = np.where(hit, 1.0 / np.log2(ranks + 2.0), 0.0)
    return hits, ndcgs
