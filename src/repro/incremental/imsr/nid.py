"""NID — New-Interests Detector (paper Section IV-C, Eqs. 11–14).

An item whose affinity is spread evenly across all current interests is
"puzzled": it cannot be classified into any existing interest.  The
posterior ``p(h_k | e_i) = softmax_k(e_i · h_k)`` (Eq. 11) is compared to
the uniform distribution via KL divergence (Eq. 12); the paper's
*puzzlement* (Eq. 13) is its negative,

    P_paper(i) = mean_k(e_i·h_k) − logsumexp_k(e_i·h_k) + ln K = −KL(u‖p),

which is ≤ 0 with maximum 0 at perfectly uniform affinity.  A positive
threshold ``c1`` (Eq. 14, paper sweeps 0.02–0.12) can never be exceeded by
a non-positive score, so we expose the monotone transform

    P(i) = exp(P_paper(i)) = exp(−KL) ∈ [0, 1]

as the implementation's puzzlement: 1 means maximally puzzled, → 0 means
one interest dominates (exactly 0 if the exponential underflows).  This keeps Eq. 14's comparison direction exactly
as described ("too large c1 prevents the creation of new interests") on a
bounded, interpretable scale; the Fig. 6 sweep values are rescaled
accordingly (see DESIGN.md / EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np


def kl_from_uniform(item_embs: np.ndarray, interests: np.ndarray) -> np.ndarray:
    """Eq. 12: per-item ``KL(uniform ‖ p(h|e_i))`` of the interest posterior."""
    if interests.shape[0] == 0:
        raise ValueError("need at least one interest vector")
    k = interests.shape[0]
    logits = item_embs @ interests.T  # (n, K)
    mean_logit = logits.mean(axis=1)
    max_logit = logits.max(axis=1)
    logsumexp = np.log(np.exp(logits - max_logit[:, None]).sum(axis=1)) + max_logit
    return logsumexp - mean_logit - np.log(k)


def puzzlement(item_embs: np.ndarray, interests: np.ndarray) -> np.ndarray:
    """Per-item puzzlement ``exp(Eq. 13) = exp(−KL)`` in [0, 1].

    Parameters
    ----------
    item_embs:
        (n, d) embeddings of the user's in-span items.
    interests:
        (K, d) the user's current interest vectors.
    """
    kl = np.maximum(kl_from_uniform(item_embs, interests), 0.0)
    return np.exp(-kl)


def mean_puzzlement(item_embs: np.ndarray, interests: np.ndarray) -> float:
    """Average puzzlement of a user's items (the quantity in Eq. 14)."""
    return float(puzzlement(item_embs, interests).mean())

