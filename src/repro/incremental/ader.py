"""ADER (Mi et al., RecSys 2020) — adaptively distilled exemplar replay.

ADER maintains a pool of historical sequences; in each span it selects
exemplars similar to the new sessions, replays them alongside the new
data, and distills the previous model's outputs on the exemplars so old
knowledge is preserved.  Following the paper's setup we keep up to
``pool_per_user`` randomly truncated sequences per user per span and add
a sigmoid distillation term (same form as Eq. 10) on replayed users.

Its training time grows across spans because the pool keeps growing
(Table V) — we deliberately do not cap the global pool.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..autograd import Tensor
from ..models.base import MSRModel, UserState
from .imsr.eir import sigmoid_distillation_loss
from .strategy import (
    IncrementalStrategy,
    TrainConfig,
    UserPayload,
    build_payloads,
    decode_json_state,
    encode_json_state,
)


def encode_pool(pool: Dict[int, List[List[int]]]) -> np.ndarray:
    """Serialize a replay pool (user -> truncated sequences) to a
    checkpointable uint8 array."""
    return encode_json_state(
        {str(u): [[int(i) for i in seq] for seq in bucket]
         for u, bucket in pool.items()})


def decode_pool(arr: np.ndarray) -> Dict[int, List[List[int]]]:
    """Inverse of :func:`encode_pool`."""
    return {int(u): [[int(i) for i in seq] for seq in bucket]
            for u, bucket in decode_json_state(arr).items()}


class ReplayPool:
    """The replay pool of ADER and IMSR+Replay, mixed in ahead of the
    strategy class: up to ``pool_per_user`` randomly truncated sequences
    per user per span, drawn from the pool's own seeded generator.

    The strategy's constructor calls :meth:`_init_pool`.  The pool fills
    after pretraining and after each span (:meth:`_add_to_pool`), and
    the pool and its generator are checkpointed under ``"pool"``.
    """

    def _init_pool(self, pool_per_user: int, seed: int) -> None:
        self.pool_per_user = pool_per_user
        #: user -> list of truncated historical sequences
        self.pool: Dict[int, List[List[int]]] = {}
        self._pool_rng = np.random.default_rng(seed)

    def random_generators(self):
        gens = super().random_generators()
        gens["pool"] = self._pool_rng
        return gens

    def extra_state(self):
        state = super().extra_state()
        state["pool"] = encode_pool(self.pool)
        return state

    def load_extra_state(self, arrays):
        arrays = dict(arrays)
        pool = arrays.pop("pool", None)
        if pool is None:  # a pool-less strategy's checkpoint, e.g. FT's
            raise ValueError(
                f"checkpoint has no replay pool for {self.name}; resuming "
                f"from it would train a different algorithm")
        super().load_extra_state(arrays)
        self.pool = decode_pool(pool)

    def pretrain(self) -> float:
        elapsed = super().pretrain()
        self._add_to_pool(self.split.pretrain)
        return elapsed

    def _add_to_pool(self, span) -> None:
        """Store ``pool_per_user`` randomly truncated sequences per user."""
        for user in span.user_ids():
            items = span.users[user].all_items
            if len(items) < 3:
                continue
            bucket = self.pool.setdefault(user, [])
            for _ in range(self.pool_per_user):
                cut = int(self._pool_rng.integers(2, len(items)))
                start = int(self._pool_rng.integers(0, len(items) - cut + 1))
                bucket.append(items[start:start + cut])


class ADER(ReplayPool, IncrementalStrategy):
    """Exemplar replay with distillation on the replayed sequences."""

    name = "ADER"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 pool_per_user: int = 5, kd_weight: float = 1e-3,
                 temperature: float = 1.0, max_replay: int = 6):
        super().__init__(model, split, config)
        self._init_pool(pool_per_user, config.seed + 17)
        self.kd_weight = kd_weight
        self.temperature = temperature
        #: cap on replayed sequences per user per span; the effective
        #: count grows with the pool's generations, which is what makes
        #: ADER's per-span cost grow across spans (Table V)
        self.max_replay = max_replay

    def _exemplar_payloads(self, span) -> List[UserPayload]:
        """Replayed sequences per pooled user.

        Users active in the span get the pool sequences most similar to
        their new session (cosine similarity of mean item embeddings);
        users *without* new interactions still get replayed sequences —
        that is what keeps their interests alive.  The replay count per
        user grows with the pool's generations (capped at ``max_replay``),
        which is why ADER's per-span training cost grows across spans
        (Table V).
        """
        emb = self.model.item_emb.weight.data
        payloads: List[UserPayload] = []
        for user, bucket in sorted(self.pool.items()):
            if not bucket:
                continue
            generations = max(1, len(bucket) // self.pool_per_user)
            n_replay = min(generations, self.max_replay, len(bucket))
            if user in span and span.users[user].all_items:
                new_items = span.users[user].all_items
                query = emb[new_items].mean(axis=0)
                qn = np.linalg.norm(query) + 1e-12
                sims = []
                for seq in bucket:
                    vec = emb[seq].mean(axis=0)
                    sims.append(float(
                        query @ vec / (qn * (np.linalg.norm(vec) + 1e-12))))
                order = np.argsort(sims)[::-1][:n_replay]
                chosen = [bucket[i] for i in order]
            else:
                picks = self._pool_rng.choice(len(bucket), size=n_replay,
                                              replace=False)
                chosen = [bucket[int(i)] for i in picks]
            for seq in chosen:
                if len(seq) >= 2:
                    cut = max(1, len(seq) // 2)
                    payloads.append(UserPayload(
                        user=user, history=seq[:cut], targets=seq[cut:]))
        return payloads

    # ------------------------------------------------------------------ #
    def train_span(self, t: int) -> float:
        span = self.split.spans[t - 1]
        for user in span.user_ids():
            self.states[user].begin_span()
        new_payloads = build_payloads(span, self.config)
        exemplars = self._exemplar_payloads(span)
        exemplar_users = {p.user for p in exemplars}

        def distill(state: UserState, interests: Tensor,
                    payload: UserPayload) -> Optional[Tensor]:
            if payload.user not in exemplar_users or self.kd_weight <= 0:
                return None
            target_embs = self.model.embed_items(payload.targets)
            kd = sigmoid_distillation_loss(
                interests, state.prev_interests, target_embs,
                temperature=self.temperature,
            )
            return kd * self.kd_weight

        start = time.perf_counter()
        self._train(list(new_payloads) + list(exemplars),
                    epochs=self.config.epochs_incremental,
                    loss_hook=distill)
        elapsed = time.perf_counter() - start

        self._refresh_snapshots(span)
        self._add_to_pool(span)
        self.train_times[t] = elapsed
        return elapsed
