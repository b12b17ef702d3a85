"""The IMSR framework (paper Section IV, Algorithms 1–2).

Fine-tuning augmented with the three modules:

* **EIR** keeps existing interests' item-scoring behavior close to the
  previous span's (distillation loss added to Eq. 6's objective);
* **NID** watches the span's items and allocates ``δK`` fresh interest
  capsules for users whose items are *puzzled* by all current interests;
* **PIT** projects the fresh capsules onto the orthogonal complement of
  the existing interests and trims those whose norm stays trivial.

Ablation variants (Fig. 5) are expressed through the constructor flags:
``IMSR(..., use_nid=False, use_pit=False)`` is "IMSR w/o NID&PIT",
``kd_weight=0`` is "IMSR w/o EIR", and ``retainer=`` selects
DIR / KD1 / KD2 / KD3.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ...autograd import Tensor
from ...models.base import MSRModel, UserState
from ...obs import trace as obs
from ...sanitize import capture as _capture
from ..strategy import (
    IncrementalStrategy,
    TrainConfig,
    UserPayload,
    build_payloads,
    decode_json_state,
    encode_json_state,
)
from .nid import mean_puzzlement
from .pit import project_new_interests, trim_mask
from .variants import get_retainer


class IMSR(IncrementalStrategy):
    """Incremental Multi-interest Sequential Recommendation (Algorithm 2)."""

    name = "IMSR"

    def __init__(
        self,
        model: MSRModel,
        split,
        config: TrainConfig,
        c1: float = 0.45,
        c2: float = 0.1,
        delta_k: int = 3,
        kd_weight: float = 0.1,
        temperature: float = 1.0,
        retainer: str = "EIR",
        use_nid: bool = True,
        use_pit: bool = True,
        max_interests: int = 24,
    ):
        super().__init__(model, split, config)
        self.c1 = c1
        self.c2 = c2
        self.delta_k = delta_k
        self.kd_weight = kd_weight
        self.temperature = temperature
        self.retainer = get_retainer(retainer)
        self.retainer_name = retainer
        self.use_nid = use_nid
        self.use_pit = use_pit
        self.max_interests = max_interests
        #: span -> list of users that NID expanded (diagnostics / Fig. 2)
        self.expansion_log: Dict[int, List[int]] = {}
        #: span -> users whose new interests were (partly) trimmed
        self.trim_log: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    def extra_state(self):
        state = super().extra_state()
        state["imsr_logs"] = _capture(encode_json_state({
            "expansion": {str(t): [int(u) for u in users]
                          for t, users in self.expansion_log.items()},
            "trim": {str(t): {str(u): int(c) for u, c in per_user.items()}
                     for t, per_user in self.trim_log.items()},
        }))
        return state

    def load_extra_state(self, arrays):
        arrays = dict(arrays)
        logs = arrays.pop("imsr_logs", None)
        super().load_extra_state(arrays)
        if logs is not None:  # absent from other strategies' checkpoints
            payload = decode_json_state(logs)
            self.expansion_log = {int(t): [int(u) for u in users]
                                  for t, users in payload["expansion"].items()}
            self.trim_log = {int(t): {int(u): int(c)
                                      for u, c in per_user.items()}
                             for t, per_user in payload["trim"].items()}

    # ------------------------------------------------------------------ #
    # Algorithm 1: interests expansion (per user, once per epoch)
    # ------------------------------------------------------------------ #
    def _ints_ex(self, epoch: int, payload: UserPayload, span_idx: int) -> None:
        state = self.states[payload.user]
        items = payload.history + payload.targets
        item_embs = self.model.item_emb.weight.data[items]

        # trim trivial new interests (Eq. 17) — only once they have had at
        # least one epoch of training behind them
        if self.use_pit and epoch > 0 and state.num_interests > state.n_existing:
            created_now = state.created_span == span_idx
            keep = trim_mask(state.interests, state.n_existing, self.c2, created_now)
            removed = int((~keep).sum())
            if removed:
                self.model.trim_user(state, keep)
                self.trim_log.setdefault(span_idx, {})[payload.user] = (
                    self.trim_log.get(span_idx, {}).get(payload.user, 0) + removed
                )
                obs.counter("imsr.capsules_trimmed", removed)
                obs.event("pit.trim", user=payload.user, span_id=span_idx,
                          epoch=epoch, removed=removed,
                          remaining=state.num_interests)

        # detect new interests (Eq. 14) and expand (Algorithm 1 lines 6-11)
        if (
            self.use_nid
            and not state.expanded_this_span
            and state.num_interests + self.delta_k <= self.max_interests
        ):
            # the NID verdict is mean_puzzlement > c1 (detect_new_interests);
            # computing the score directly lets telemetry record it
            score = mean_puzzlement(item_embs, state.interests)
            obs.observe("nid.puzzlement", score)
            if score > self.c1:
                self.model.expand_user(state, self.delta_k, span=span_idx)
                state.expanded_this_span = True
                self.expansion_log.setdefault(span_idx, []).append(payload.user)
                obs.counter("imsr.capsules_added", self.delta_k)
                obs.event("nid.expansion", user=payload.user, span_id=span_idx,
                          epoch=epoch, puzzlement=float(score),
                          delta_k=self.delta_k,
                          num_interests=state.num_interests)

    def _pit_hook(self, state: UserState, interests: Tensor) -> Tensor:
        """In-graph PIT projection (Eq. 16) of the span's new interests."""
        if not self.use_pit or state.num_interests <= state.n_existing:
            return interests
        projected = project_new_interests(interests, state.n_existing)
        if obs.enabled():
            norms = np.linalg.norm(projected.data[state.n_existing:], axis=1)
            obs.observe_many("pit.residual_norm", norms)
        return projected

    def _retention_loss(self, state: UserState, interests: Tensor,
                        payload: UserPayload) -> Optional[Tensor]:
        """EIR's distillation term (Eq. 10 or an ablation variant)."""
        if self.kd_weight <= 0 or state.prev_interests.shape[0] == 0:
            return None
        target_embs = self.model.embed_items(payload.targets)
        kd = self.retainer(
            interests, state.prev_interests, target_embs,
            temperature=self.temperature,
        )
        if obs.enabled():
            obs.observe("eir.kd_loss", float(kd.data))
            obs.event("eir.distill", user=payload.user,
                      span_id=self._current_span, kd=float(kd.data),
                      retainer=self.retainer_name)
        return kd * self.kd_weight

    # ------------------------------------------------------------------ #
    # Algorithm 2: the training procedure for one span
    # ------------------------------------------------------------------ #
    def train_span(self, t: int) -> float:
        self.set_current_span(t)
        span = self.split.spans[t - 1]
        for user in span.user_ids():
            self.states[user].begin_span()
        payloads = build_payloads(span, self.config)

        def epoch_hook(epoch: int, payload: UserPayload) -> None:
            self._ints_ex(epoch, payload, span_idx=t)

        start = time.perf_counter()
        self._train(
            payloads,
            epochs=self.config.epochs_incremental,
            loss_hook=self._retention_loss,
            epoch_hook=epoch_hook,
            interests_hook=self._pit_hook,
        )
        elapsed = time.perf_counter() - start

        self._refresh_snapshots(span, interests_hook=self._pit_hook)
        self.train_times[t] = elapsed
        return elapsed

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def mean_interest_count(self) -> float:
        return float(np.mean([s.num_interests for s in self.states.values()]))

    def user_puzzlement(self, user: int, items: List[int]) -> float:
        item_embs = self.model.item_emb.weight.data[items]
        return mean_puzzlement(item_embs, self.states[user].interests)
