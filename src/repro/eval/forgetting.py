"""Catastrophic-forgetting analysis (the paper's RQ4 instrumented).

Continual-learning literature (Kemker et al., 2018; Lopez-Paz &
Ranzato, 2017) quantifies forgetting with the accuracy matrix
``R[i, j]`` — performance on task *j*'s test set after training through
task *i*.  Here tasks are time spans: after training span ``i`` we
re-test the model on every earlier span's test items.  From R we derive:

* **backward transfer (BWT)** — mean over j < i of ``R[last, j] − R[j, j]``;
  negative values are forgetting;
* **forgetting measure** — mean over j of ``max_i R[i, j] − R[last, j]``.

FT should show strongly negative BWT; IMSR (retention + expansion)
should forget markedly less — the mechanism behind Table III's gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..data.schema import TemporalSplit
from ..incremental.strategy import IncrementalStrategy
from .evaluator import evaluate_span


@dataclass
class ForgettingReport:
    """The span-accuracy matrix and the derived scalar measures."""

    #: R[i][j]: HR on span j+1's items after training span i (i, j >= 1)
    matrix: np.ndarray
    spans: List[int]

    @property
    def final_row(self) -> np.ndarray:
        return self.matrix[-1]

    def backward_transfer(self) -> float:
        """Mean change on earlier spans after all training (negative =
        forgetting).

        The anchor for span ``j`` is ``R[j+1, j]`` — the first row in
        which that span's own training data has been consumed; any later
        change is purely a retention effect (sequential data means
        ``R[j, j]`` would confound forgetting with not-yet-seen items).
        """
        n = len(self.spans)
        if n < 2:
            return 0.0
        deltas = [
            self.matrix[-1, j] - self.matrix[j + 1, j] for j in range(n - 1)
        ]
        return float(np.mean(deltas))

    def forgetting_measure(self) -> float:
        """Mean peak-to-final drop per span (0 = no forgetting)."""
        n = len(self.spans)
        if n < 2:
            return 0.0
        drops = [
            float(np.nanmax(self.matrix[:, j]) - self.matrix[-1, j])
            for j in range(n - 1)
        ]
        return float(np.mean(drops))

    def as_rows(self) -> List[Dict[str, object]]:
        rows = []
        for i, span_i in enumerate(self.spans):
            row: Dict[str, object] = {"trained_span": span_i}
            for j, span_j in enumerate(self.spans):
                row[f"eval s{span_j + 1}"] = (
                    float(self.matrix[i, j]) if j <= i else float("nan")
                )
            rows.append(row)
        return rows


def forgetting_analysis(
    strategy: IncrementalStrategy,
    split: TemporalSplit,
) -> ForgettingReport:
    """Train spans ``1..T-1`` in turn, re-testing all earlier spans.

    The strategy must be freshly constructed; this function calls
    ``pretrain()`` and ``train_span()`` itself.  Evaluation of span ``j``
    uses span ``j+1``'s held-out *test* items, matching the paper's
    forward-test protocol, so ``R[i, j]`` reads "after training span i,
    how well do we predict what users did right after span j".

    Evaluation uses the strict ``targets="test"`` protocol — unlike the
    headline evaluation, retrospective rows would otherwise score items
    the model has since *trained on* (spans j+1..i), which masks
    forgetting with leakage.
    """
    strategy.pretrain()
    spans = list(range(1, split.T))
    n = len(spans)
    matrix = np.full((n, n), np.nan)
    for i, span_i in enumerate(spans):
        strategy.train_span(span_i)
        for j, span_j in enumerate(spans[: i + 1]):
            result = evaluate_span(strategy.score_users,
                                   split.spans[span_j], targets="test")
            matrix[i, j] = result.hr
    return ForgettingReport(matrix=matrix, spans=spans)


def compare_forgetting(
    reports: Dict[str, ForgettingReport],
) -> List[Dict[str, object]]:
    """Tabulate BWT / forgetting across strategies (rows for reporting)."""
    return [
        {
            "strategy": name,
            "final_avg_HR": float(np.nanmean(report.final_row)),
            "backward_transfer": report.backward_transfer(),
            "forgetting": report.forgetting_measure(),
        }
        for name, report in reports.items()
    ]
