"""Evaluation: ranking metrics, span protocol, significance tests."""

from .metrics import (
    hit_at_k,
    metrics_at_k,
    metrics_from_ranks,
    ndcg_at_k,
    rank_of_target,
    ranks_of_user_targets,
)
from .evaluator import EvalResult, average_results, evaluate_span
from .significance import paired_t_test
from .forgetting import ForgettingReport, compare_forgetting, forgetting_analysis

__all__ = [
    "hit_at_k",
    "ndcg_at_k",
    "rank_of_target",
    "ranks_of_user_targets",
    "metrics_at_k",
    "metrics_from_ranks",
    "EvalResult",
    "evaluate_span",
    "average_results",
    "paired_t_test",
    "ForgettingReport",
    "forgetting_analysis",
    "compare_forgetting",
]
