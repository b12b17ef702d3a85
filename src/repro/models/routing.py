"""Behavior-to-Interest (B2I) dynamic routing (paper Eqs. 3–4).

Routing softly clusters a user's (transformed) item embeddings into ``K``
interest capsules.  Following MIND / ComiRec practice, routing weights are
treated as constants for backpropagation except in the final iteration:
gradients flow into the transformed item embeddings (and hence the shared
transformation matrix and the embedding table) through the last
``h_k = squash(Σ_i c_ik ê_i)`` only.

Convention note: the paper's text normalizes the vote ``c_ik`` "over other
items", i.e. a softmax across the item axis per interest; we follow the
text (see DESIGN.md — MIND/ComiRec reference code normalizes across
capsules instead; either yields a soft clustering).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..backend.fused import fused_dr_interests_single


def b2i_routing(
    e_hat: Tensor,
    init_interests: np.ndarray,
    iterations: int = 3,
    init_logits: Optional[np.ndarray] = None,
    normalize: str = "items",
) -> Tensor:
    """Run B2I dynamic routing and return interest capsules.

    Parameters
    ----------
    e_hat:
        (n, d) transformed item embeddings; stays in the autograd graph.
    init_interests:
        (K, d) initial high-level capsules.  In the incremental setting this
        is the user's stored interest matrix from the previous span (plus
        any freshly initialized new-interest rows), which is how existing
        interests persist through re-extraction.
    iterations:
        Number of routing iterations ``L``.
    init_logits:
        Optional (n, K) additive initial routing logits.  MIND initializes
        these randomly; ComiRec-DR uses zeros (``None``).
    normalize:
        ``"items"`` (default) normalizes votes across items per interest,
        following the paper's text; ``"capsules"`` normalizes across
        interests per item, following the MIND/ComiRec reference code.
        The substrate-ablation benchmark compares the two.

    Returns
    -------
    Tensor
        (K, d) squashed interest capsules, differentiable w.r.t. ``e_hat``.
    """
    if e_hat.ndim != 2:
        raise ValueError(f"e_hat must be (n, d), got shape {e_hat.shape}")
    if init_interests.ndim != 2 or init_interests.shape[1] != e_hat.shape[1]:
        raise ValueError(
            f"init_interests must be (K, {e_hat.shape[1]}), got {init_interests.shape}"
        )
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return fused_dr_interests_single(e_hat, init_interests, iterations,
                                     init_logits, normalize)
