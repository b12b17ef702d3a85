"""Sampled-softmax next-item loss (paper Eq. 6).

The preference score of item ``i`` is ``v_uᵀ e_i`` where ``v_u`` is the
target-attentive aggregation of the user's interests (Eq. 5).  The loss
contrasts the target against a small uniformly sampled negative set and
minimizes the negative log-likelihood.
"""

from __future__ import annotations

from ..autograd import Tensor
from ..backend.fused import fused_sampled_softmax_single


def batch_sampled_softmax_loss(
    interests: Tensor,
    target_embs: Tensor,
    negative_embs: Tensor,
) -> Tensor:
    """Mean sampled-softmax loss over several targets of the *same* user.

    The paper splits each user's in-span interactions into a history part
    (interests are extracted from it once) and a target set; all targets
    share the same interest matrix.  ``target_embs`` is (m, d) and
    ``negative_embs`` is (m, num_neg, d).
    """
    return fused_sampled_softmax_single(interests, target_embs, negative_embs)
