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
from typing import List

from ..models.base import MSRModel
from .ader import ReplayPool
from .imsr.framework import IMSR
from .strategy import TrainConfig, UserPayload, build_payloads


class IMSRReplay(ReplayPool, IMSR):
    """IMSR with an auxiliary exemplar-replay stream."""

    name = "IMSR+Replay"

    def __init__(self, model: MSRModel, split, config: TrainConfig,
                 pool_per_user: int = 3, replay_per_span: int = 1, **imsr_kwargs):
        super().__init__(model, split, config, **imsr_kwargs)
        self._init_pool(pool_per_user, config.seed + 47)
        self.replay_per_span = replay_per_span

    # ------------------------------------------------------------------ #
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
