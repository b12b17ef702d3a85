"""ComiRec-SA (Cen et al., KDD 2020) — self-attention MSR base model.

Implements the paper's Eqs. 7–9: per-user attention weights ``W_u``
(d_a x K; one column per interest) attend over ``tanh(W_1 E_u)``; the
interest matrix is the attention-weighted sum of item embeddings.

Unlike the DR models, the per-user ``W_u`` are trainable parameters that
the incremental strategies must include in the optimizer; interest
expansion appends columns to ``W_u``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor
from ..backend.fused import fused_sa_interests_single
from ..nn import Parameter, init
from .base import MSRModel, UserState


class ComiRecSA(MSRModel):
    """Multi-head additive self-attention interest extractor."""

    family = "sa"

    def __init__(self, num_items: int, dim: int = 32, num_interests: int = 4,
                 attention_dim: Optional[int] = None, seed: int = 0):
        super().__init__(num_items, dim=dim, num_interests=num_interests, seed=seed)
        self.attention_dim = attention_dim or dim
        self.w1 = Parameter(init.xavier_uniform((self.attention_dim, dim), self.rng))

    # ------------------------------------------------------------------ #
    # per-user attention weights
    # ------------------------------------------------------------------ #
    def _init_sa_weights(self, k: int) -> Parameter:
        return Parameter(init.xavier_uniform((self.attention_dim, k), self.rng))

    def _expand_sa_weights(self, state: UserState, delta_k: int) -> None:
        new_cols = init.xavier_uniform((self.attention_dim, delta_k), self.rng)
        merged = np.concatenate([state.sa_weights.data, new_cols], axis=1)
        state.sa_weights = Parameter(merged)

    def _trim_sa_weights(self, state: UserState, keep: np.ndarray) -> None:
        state.sa_weights = Parameter(state.sa_weights.data[:, keep])

    # ------------------------------------------------------------------ #
    def compute_interests(self, state: UserState, item_seq: Sequence[int]) -> Tensor:
        if len(item_seq) == 0:
            raise ValueError("cannot extract interests from an empty sequence")
        if state.sa_weights is None:
            raise ValueError("SA user state is missing attention weights")
        if state.sa_weights.data.shape[1] != state.num_interests:
            raise ValueError(
                "user attention weights out of sync with interest count: "
                f"{state.sa_weights.data.shape[1]} vs {state.num_interests}"
            )
        embs = self.embed_items(item_seq)                  # (n, d)
        return fused_sa_interests_single(embs, self.w1, state.sa_weights)
