"""Full retraining (FR): reinitialize and train on all data seen so far.

The upper-baseline strategy: in span ``t`` the model parameters are
reinitialized and trained on the pre-training window plus incremental
spans ``1..t``.  Its training cost therefore grows with ``t`` (Table V)
while its accuracy is the reference the incremental methods chase.

The paper keeps FR's per-user interest counts equal to IMSR's; pass an
``interest_counts`` mapping (from a finished IMSR run) to reproduce that,
otherwise the base ``K0`` is used.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..models.base import MSRModel
from .strategy import IncrementalStrategy, TrainConfig, UserPayload


class FullRetrain(IncrementalStrategy):
    """Reinitialize every span; train on the cumulative dataset."""

    name = "FR"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 model_factory=None,
                 interest_counts: Optional[Dict[int, Dict[int, int]]] = None,
                 target_cap: int = 60):
        super().__init__(model, split, config)
        if model_factory is None:
            raise ValueError("FullRetrain needs a model_factory to reinitialize")
        self._model_factory = model_factory
        #: optional span -> (user -> K) sync with IMSR's interest counts
        self._interest_counts = interest_counts or {}
        #: FR sees the cumulative stream, so it gets a higher target cap
        #: than the incremental strategies (whose spans are short)
        self.target_cap = target_cap

    def _cumulative_payloads(self, t: int) -> List[UserPayload]:
        """History/target payloads over all data through span ``t``."""
        payloads: List[UserPayload] = []
        per_user: Dict[int, List[int]] = {}
        for user in self.split.pretrain.user_ids():
            per_user.setdefault(user, []).extend(
                self.split.pretrain.users[user].all_items
            )
        for span in self.split.spans[:t]:
            for user in span.user_ids():
                per_user.setdefault(user, []).extend(span.users[user].all_items)
        for user, items in sorted(per_user.items()):
            if len(items) < 2:
                continue
            cut = max(1, int(round(len(items) * self.config.history_fraction)))
            cut = min(cut, len(items) - 1)
            targets = items[cut:]
            if len(targets) > self.target_cap:
                targets = targets[-self.target_cap:]
            payloads.append(UserPayload(user=user, history=items[:cut], targets=targets))
        return payloads

    def train_span(self, t: int) -> float:
        # reinitialize the model and all user states
        self.model = self._model_factory()
        self.states = self.model.init_all_users(self._all_user_ids())
        counts = self._interest_counts.get(t)
        if counts:
            for user, k in counts.items():
                state = self.states.get(user)
                if state is not None and k > state.num_interests:
                    self.model.expand_user(state, k - state.num_interests, span=t)

        payloads = self._cumulative_payloads(t)
        start = time.perf_counter()
        # training from scratch needs pretraining-scale epochs — this is
        # exactly why FR's per-span cost dwarfs the incremental methods'
        self._train(payloads, epochs=self.config.epochs_pretrain)
        elapsed = time.perf_counter() - start
        # snapshot from each user's full cumulative sequence
        for payload in payloads:
            self.model.snapshot_interests(self.states[payload.user],
                                          payload.history + payload.targets)
        self.train_times[t] = elapsed
        return elapsed
