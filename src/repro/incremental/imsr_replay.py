"""IMSR + exemplar replay — an extension beyond the paper.

The paper compares IMSR against sample-based replay (ADER) as
alternatives; nothing prevents combining them.  This strategy runs the
full IMSR framework (EIR + NID + PIT) while additionally replaying
ADER-style truncated historical sequences, answering the natural
follow-up question: *does replay add anything once retention and
expansion are in place?*  The extension benchmark reports the result.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..models.base import MSRModel
from ..sanitize import capture as _capture
from .ader import decode_pool, encode_pool
from .imsr.framework import IMSR
from .strategy import TrainConfig, UserPayload, build_payloads


class IMSRReplay(IMSR):
    """IMSR with an auxiliary exemplar-replay stream."""

    name = "IMSR+Replay"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 pool_per_user: int = 3, replay_per_span: int = 1, **imsr_kwargs):
        super().__init__(model, split, config, **imsr_kwargs)
        self.pool_per_user = pool_per_user
        self.replay_per_span = replay_per_span
        self.pool: Dict[int, List[List[int]]] = {}
        self._pool_rng = np.random.default_rng(config.seed + 47)

    # ------------------------------------------------------------------ #
    def random_generators(self):
        gens = super().random_generators()
        gens["pool"] = self._pool_rng
        return gens

    def extra_state(self):
        state = super().extra_state()
        state["pool"] = _capture(encode_pool(self.pool))
        return state

    def load_extra_state(self, arrays):
        arrays = dict(arrays)
        pool = arrays.pop("pool", None)
        if pool is None:  # another strategy's checkpoint, e.g. IMSR's
            raise ValueError(
                "checkpoint has no replay pool for IMSR+Replay; resuming "
                "from it would train a different algorithm")
        super().load_extra_state(arrays)
        self.pool = decode_pool(pool)

    # ------------------------------------------------------------------ #
    def _add_to_pool(self, span) -> None:
        for user in span.user_ids():
            items = span.users[user].all_items
            if len(items) < 3:
                continue
            bucket = self.pool.setdefault(user, [])
            for _ in range(self.pool_per_user):
                cut = int(self._pool_rng.integers(2, len(items)))
                start = int(self._pool_rng.integers(0, len(items) - cut + 1))
                bucket.append(items[start:start + cut])

    def _replay_payloads(self) -> List[UserPayload]:
        payloads: List[UserPayload] = []
        for user, bucket in sorted(self.pool.items()):
            if not bucket:
                continue
            picks = self._pool_rng.choice(
                len(bucket),
                size=min(self.replay_per_span, len(bucket)),
                replace=False,
            )
            for i in picks:
                seq = bucket[int(i)]
                if len(seq) >= 2:
                    cut = max(1, len(seq) // 2)
                    payloads.append(UserPayload(
                        user=user, history=seq[:cut], targets=seq[cut:]))
        return payloads

    # ------------------------------------------------------------------ #
    def pretrain(self) -> float:
        elapsed = super().pretrain()
        self._add_to_pool(self.split.pretrain)
        return elapsed

    def train_span(self, t: int) -> float:
        span = self.split.spans[t - 1]
        for user in span.user_ids():
            self.states[user].begin_span()
        payloads = list(build_payloads(span, self.config))
        payloads.extend(self._replay_payloads())

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
        self._add_to_pool(span)
        self.train_times[t] = elapsed
        return elapsed
