"""Target attention over interests (paper Eq. 5) and item scoring.

Training uses the target-aware aggregation: the target item embedding acts
as a query over the user's interests, ``v_u = Σ_k β_k h_k`` with
``β = softmax(e_aᵀ h_k)``; it runs inside the sampled-softmax loss kernel
(:mod:`repro.backend.fused`).  Inference cannot see the target, so
retrieval follows MSR practice (MIND/ComiRec): an item's score is its best
match across interests, ``score(i) = max_k h_kᵀ e_i``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def attention_scores(interests: np.ndarray, target_emb: np.ndarray) -> np.ndarray:
    """Softmax attention of a target item over interests (numpy, no grad).

    Used by the Fig. 7(c) case study: which (possibly early-created)
    interest wins the attention for a later target item.
    """
    logits = interests @ target_emb
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def score_items(interests: np.ndarray, item_embeddings: np.ndarray) -> np.ndarray:
    """Max-over-interests retrieval scores for every item (numpy, no grad).

    ``interests`` (K, d) x ``item_embeddings`` (N, d) -> (N,) scores.
    """
    if interests.size == 0:
        return np.zeros(item_embeddings.shape[0])
    return (item_embeddings @ interests.T).max(axis=1)


def score_items_batch(interest_list: Sequence[np.ndarray],
                      item_embeddings: np.ndarray) -> np.ndarray:
    """:func:`score_items` for a whole batch of users at once.

    Issues the *identical* per-user ``(N, d) @ (d, K_u)`` product that
    :func:`score_items` issues, so every output row is
    **bit-identical** to the per-user path by construction — the
    batching win comes from amortizing the Python call overhead and
    from the vectorized rank/metric pipeline downstream
    (:func:`repro.eval.ranks_of_user_targets`), not from changing any
    floating-point computation.  The matrix is allocated in the
    catalog's dtype, the compute dtype.
    """
    out = np.empty((len(interest_list), item_embeddings.shape[0]),
                   dtype=item_embeddings.dtype)
    for u, interests in enumerate(interest_list):
        out[u] = score_items(interests, item_embeddings)
    return out
