"""EWC — Elastic Weight Consolidation (Kirkpatrick et al., 2017).

A representative of the *regularization-based* incremental-learning
family the paper's related work discusses (and argues is of limited use
for incremental MSR): after each span, the diagonal Fisher information
of the shared parameters is estimated on that span's data; subsequent
spans add the quadratic penalty

    L_EWC = (λ/2) Σ_p F_p (θ_p − θ_p*)²

to the fine-tuning objective.  EWC constrains *parameters* rather than
user interest representations and cannot grow the interest count —
exactly the two limitations IMSR's EIR/NID/PIT address.  The extension
benchmark quantifies that claim.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..autograd import Tensor
from ..models.base import MSRModel, UserState
from .strategy import IncrementalStrategy, TrainConfig, UserPayload, build_payloads


class EWC(IncrementalStrategy):
    """Fine-tuning with a diagonal-Fisher quadratic penalty."""

    name = "EWC"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 ewc_weight: float = 10.0, fisher_samples: int = 64):
        super().__init__(model, split, config)
        self.ewc_weight = ewc_weight
        self.fisher_samples = fisher_samples
        #: parameter name -> diagonal Fisher estimate (running average)
        self.fisher: Dict[str, np.ndarray] = {}
        #: parameter name -> anchor values θ* from the previous span
        self.anchors: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def extra_state(self):
        state = super().extra_state()
        for name, arr in sorted(self.fisher.items()):
            state[f"fisher/{name}"] = arr
        for name, arr in sorted(self.anchors.items()):
            state[f"anchor/{name}"] = arr
        return state

    def load_extra_state(self, arrays):
        arrays = dict(arrays)
        fisher = {k[len("fisher/"):]: arrays.pop(k).copy()
                  for k in list(arrays) if k.startswith("fisher/")}
        anchors = {k[len("anchor/"):]: arrays.pop(k).copy()
                   for k in list(arrays) if k.startswith("anchor/")}
        super().load_extra_state(arrays)
        # another strategy's checkpoint legitimately has neither, and
        # EWC saved before any _estimate_fisher() call has empty dicts
        self.fisher = fisher
        self.anchors = anchors

    # ------------------------------------------------------------------ #
    def _estimate_fisher(self, payloads: List[UserPayload]) -> None:
        """Diagonal Fisher ≈ mean squared gradient of the loss over a
        sample of the span's users."""
        rng = np.random.default_rng(self.config.seed + 31)
        if not payloads:
            return
        sample_idx = rng.choice(
            len(payloads), size=min(self.fisher_samples, len(payloads)),
            replace=False,
        )
        accum = {
            name: np.zeros_like(param.data)
            for name, param in self.model.named_parameters()
        }
        count = 0
        for idx in sample_idx:
            payload = payloads[int(idx)]
            state = self.states[payload.user]
            self.model.zero_grad()
            interests = self.model.compute_interests(state, payload.history)
            negatives = np.stack(
                [self.sampler.sample(t) for t in payload.targets]
            )
            loss = self.model.loss_targets(interests, payload.targets, negatives)
            loss.backward()
            for name, param in self.model.named_parameters():
                if param.grad is not None:
                    accum[name] += param.grad ** 2
            count += 1
        if count == 0:
            return
        # sorted: the reduction order of this dict is part of the
        # determinism contract (RA7xx), not an accident of insertion order
        for name in sorted(accum):
            new = accum[name] / count
            if name in self.fisher:  # running average across spans
                self.fisher[name] = 0.5 * (self.fisher[name] + new)
            else:
                self.fisher[name] = new
        self.anchors = dict(sorted(self.model.state_dict().items()))

    def _penalty(self) -> Optional[Tensor]:
        """The EWC quadratic penalty over the shared parameters."""
        if not self.fisher:
            return None
        total: Optional[Tensor] = None
        for name, param in self.model.named_parameters():
            fisher = self.fisher.get(name)
            anchor = self.anchors.get(name)
            if fisher is None or anchor is None:
                continue
            if fisher.shape != param.data.shape:
                continue
            diff = param - Tensor(anchor)
            term = (Tensor(fisher) * diff * diff).sum()
            total = term if total is None else total + term
        if total is None:
            return None
        return total * (0.5 * self.ewc_weight)

    # ------------------------------------------------------------------ #
    def pretrain(self) -> float:
        elapsed = super().pretrain()
        self._estimate_fisher(build_payloads(self.split.pretrain, self.config))
        return elapsed

    def train_span(self, t: int) -> float:
        span = self.split.spans[t - 1]
        for user in span.user_ids():
            self.states[user].begin_span()
        payloads = build_payloads(span, self.config)

        def penalty_hook(state: UserState, interests: Tensor,
                         payload: UserPayload) -> Optional[Tensor]:
            return self._penalty()

        start = time.perf_counter()
        self._train(payloads, epochs=self.config.epochs_incremental,
                    loss_hook=penalty_hook)
        elapsed = time.perf_counter() - start
        self._refresh_snapshots(span)
        self._estimate_fisher(payloads)
        self.train_times[t] = elapsed
        return elapsed
