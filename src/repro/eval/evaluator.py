"""Span-level evaluation following the paper's protocol.

After training on span ``t``, the model is tested on span ``t+1``: for
each user with a test item there, score the full catalog from the user's
stored interest vectors and compute HR@20 / NDCG@20.  Per-span results are
averaged over spans ``1..T-1`` for the headline numbers (Table III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.schema import SpanDataset
from ..obs import prof as _prof
from ..obs import trace as obs
from .metrics import metrics_from_ranks, ranks_of_user_targets


@dataclass
class EvalResult:
    """Aggregated metrics for one evaluation pass."""

    hr: float
    ndcg: float
    num_cases: int
    per_user: Dict[int, tuple] = field(default_factory=dict)

    def as_row(self) -> Dict[str, float]:
        return {"HR": self.hr, "NDCG": self.ndcg, "n": self.num_cases}


def _collect_cases(
    span: SpanDataset,
    targets: str,
    item_filter: Optional[Callable[[int, int], bool]],
) -> List[Tuple[int, List[int]]]:
    """(user, test items) pairs in span user order — the span's test set."""
    cases: List[Tuple[int, List[int]]] = []
    for user in span.user_ids():
        data = span.users[user]
        if targets == "test":
            user_items = [data.test_item] if data.test_item is not None else []
        else:
            user_items = data.all_items
        if item_filter is not None:
            user_items = [i for i in user_items if item_filter(user, i)]
        if user_items:
            cases.append((user, user_items))
    return cases


def evaluate_span(
    score_users: Callable[[Sequence[int]], np.ndarray],
    span: SpanDataset,
    k: int = 20,
    item_filter: Optional[Callable[[int, int], bool]] = None,
    keep_per_user: bool = False,
    targets: str = "test",
) -> EvalResult:
    """HR@k / NDCG@k of a batch scorer on a span's items.

    ``score_users(users) -> (U, num_items)`` returns one row of catalog
    scores per user (:meth:`IncrementalStrategy.score_users`).

    ``targets`` selects the test cases per user:

    * ``"test"`` — the paper's protocol: the span's single held-out test
      item per user;
    * ``"all"`` — every item the user interacts with in the span.  When
      the model was trained through the *previous* span, all of these are
      unseen, so this is a legitimate densification of the protocol; our
      synthetic worlds have hundreds of users rather than the paper's
      hundreds of thousands, and the extra cases per user recover the
      statistical power the paper gets from sheer user count (see
      DESIGN.md).

    ``item_filter(user, item) -> bool`` restricts which test cases count —
    used by the Fig. 7(a) case study to split existing vs. new items.
    Per-user metrics (``keep_per_user``) average that user's cases.

    One ``score_users`` call scores every user with test cases, and all
    cases' ranks and metrics are computed in one fused pass
    (:func:`ranks_of_user_targets` / :func:`metrics_from_ranks`),
    bit-identical to the historical per-user, per-item evaluator
    (``tests/test_eval_batched.py``).
    """
    if targets not in ("test", "all"):
        raise ValueError(f"targets must be 'test' or 'all', got {targets!r}")
    cases = _collect_cases(span, targets, item_filter)
    per_user: Dict[int, tuple] = {}
    if not cases:
        return EvalResult(hr=0.0, ndcg=0.0, num_cases=0, per_user=per_user)
    with _prof.op("eval.score"):
        score_matrix = np.asarray(score_users([u for u, _ in cases]))
    with _prof.op("eval.rank"):
        counts = [len(items) for _, items in cases]
        case_rows = np.repeat(np.arange(len(cases)), counts)
        case_items = np.concatenate(
            [np.asarray(items, dtype=np.int64) for _, items in cases])
        rank_start = time.perf_counter()
        ranks = ranks_of_user_targets(score_matrix, case_rows, case_items)
        all_hits, all_ndcgs = metrics_from_ranks(ranks, k=k)
        obs.observe("eval.rank_compute_seconds",
                    time.perf_counter() - rank_start)
    obs.counter("eval.cases", len(case_items))
    if keep_per_user:
        offset = 0
        for (user, _), m in zip(cases, counts):
            per_user[user] = (
                float(np.mean(all_hits[offset:offset + m])),
                float(np.mean(all_ndcgs[offset:offset + m])),
            )
            offset += m
    return EvalResult(
        hr=float(np.mean(all_hits)),
        ndcg=float(np.mean(all_ndcgs)),
        num_cases=int(all_hits.shape[0]),
        per_user=per_user,
    )


def average_results(results: Sequence[EvalResult]) -> EvalResult:
    """Average several spans' results, weighting spans equally (paper)."""
    usable = [r for r in results if r.num_cases > 0]
    if not usable:
        return EvalResult(hr=0.0, ndcg=0.0, num_cases=0)
    return EvalResult(
        hr=float(np.mean([r.hr for r in usable])),
        ndcg=float(np.mean([r.ndcg for r in usable])),
        num_cases=sum(r.num_cases for r in usable),
    )
