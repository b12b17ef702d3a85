"""SML (Zhang et al., SIGIR 2020) — sequential meta-learning transfer.

SML trains the current model on the new span, then *learns how to combine*
the previous span's parameters with the freshly trained ones, using the
new data to supervise the combination.  The original uses a CNN over
stacked parameter matrices as the transfer module; with our from-scratch
substrate we implement the transfer as a per-parameter-tensor convex
interpolation ``W ← α·W_prev + (1−α)·W_new`` whose coefficient is
meta-selected on the span's validation items (grid search).  This
preserves SML's defining behavior — knowledge transfer that interpolates
between FT and stability, with per-span meta-supervision — at a fraction
of the machinery; see DESIGN.md for the substitution note.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..eval.metrics import metrics_at_k
from ..models.base import MSRModel
from .strategy import (
    IncrementalStrategy,
    TrainConfig,
    build_payloads,
    decode_json_state,
    encode_json_state,
)


class SML(IncrementalStrategy):
    """Meta-learned interpolation between previous and current parameters."""

    name = "SML"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 alpha_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)):
        super().__init__(model, split, config)
        self.alpha_grid = alpha_grid
        self.chosen_alphas: Dict[int, float] = {}

    def extra_state(self):
        state = super().extra_state()
        state["sml_alphas"] = encode_json_state(
            {str(t): float(a) for t, a in self.chosen_alphas.items()})
        return state

    def load_extra_state(self, arrays):
        arrays = dict(arrays)
        alphas = arrays.pop("sml_alphas", None)
        super().load_extra_state(arrays)
        if alphas is not None:  # absent from other strategies' checkpoints
            self.chosen_alphas = {int(t): float(a)
                                  for t, a in decode_json_state(alphas).items()}

    def train_span(self, t: int) -> float:
        span = self.split.spans[t - 1]
        for user in span.user_ids():
            self.states[user].begin_span()
        prev_params = self.model.state_dict()
        payloads = build_payloads(span, self.config)

        start = time.perf_counter()
        self._train(payloads, epochs=self.config.epochs_incremental)
        new_params = self.model.state_dict()

        # --- transfer module: meta-select the combination coefficient.
        # Supervision spans both the current span's validation items and
        # the previous span's (knowledge transfer must serve old and new
        # interests alike), which is what distinguishes SML from plain FT.
        val_spans = [span]
        if t >= 2:
            val_spans.append(self.split.spans[t - 2])
        best_alpha, best_score = 0.0, -1.0
        for alpha in self.alpha_grid:
            self._load_interpolated(prev_params, new_params, alpha)
            score = float(np.mean([self._validation_score(s) for s in val_spans]))
            if score > best_score:
                best_alpha, best_score = alpha, score
        self._load_interpolated(prev_params, new_params, best_alpha)
        elapsed = time.perf_counter() - start

        self.chosen_alphas[t] = best_alpha
        self._refresh_snapshots(span)
        self.train_times[t] = elapsed
        return elapsed

    # ------------------------------------------------------------------ #
    def _load_interpolated(self, prev: Dict[str, np.ndarray],
                           new: Dict[str, np.ndarray], alpha: float) -> None:
        combined = {
            name: alpha * prev[name] + (1.0 - alpha) * new[name]
            for name in new
            if name in prev and prev[name].shape == new[name].shape
        }
        self.model.load_state_dict(combined, strict=False)

    def _validation_score(self, span) -> float:
        """Mean HR@20 on the span's validation items under current params."""
        hits: List[float] = []
        for user in span.user_ids():
            data = span.users[user]
            if data.val_item is None or not data.train_items:
                continue
            state = self.states[user]
            interests = self.model.compute_interests(state, data.train_items)
            scores = (
                self.model.item_emb.weight.data @ interests.data.T
            ).max(axis=1)
            hit, _ = metrics_at_k(scores, data.val_item, k=20)
            hits.append(hit)
        return float(np.mean(hits)) if hits else 0.0
