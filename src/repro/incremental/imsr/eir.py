"""EIR — Existing-Interests Retainer (paper Section IV-B, Eq. 10).

Treats the previous span's interest vectors as a teacher: for each
existing interest ``k`` and target item ``a``, the student logit
``h_k^t · e_a / τ`` is pulled toward the teacher logit
``h_k^{t-1} · e_a / τ`` through a sigmoid binary cross-entropy, following
the practical distillation form of Wang et al. (2020) that the paper
adopts.  Unlike a Euclidean penalty (the DIR ablation), this constrains
the interests' *behavior* on items rather than their coordinates, so an
interest may drift in representation space as long as it keeps scoring
items the same way — the paper's flip-phone → smartphone example.

The softmax-based alternatives KD1/KD2/KD3 used in the Fig. 5 ablation
live in :mod:`repro.incremental.imsr.variants`.
"""

from __future__ import annotations

import numpy as np

from ...autograd import Tensor
from ...autograd.ops import binary_cross_entropy, mse, sigmoid


def sigmoid_distillation_loss(
    interests: Tensor,
    prev_interests: np.ndarray,
    target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """Eq. 10: sigmoid-BCE between student and teacher interest logits.

    Parameters
    ----------
    interests:
        (K, d) current interest matrix, in-graph.  Only the first
        ``K_prev`` rows (the existing interests) are distilled.
    prev_interests:
        (K_prev, d) stored interests from the previous span (teacher —
        constant for backprop).
    target_embs:
        (m, d) embeddings of the span's target items ``e_a^t``.
    temperature:
        The ``τ`` softening both logits.
    """
    k_prev = prev_interests.shape[0]
    if k_prev == 0:
        return Tensor(0.0)
    student_logits = (interests[:k_prev] @ target_embs.T) * (1.0 / temperature)
    teacher_logits = (prev_interests @ target_embs.data.T) / temperature  # repro: noqa[RA102] teacher logits are constants by design (Eq. 10)
    teacher = Tensor(1.0 / (1.0 + np.exp(-teacher_logits)))  # detached σ
    return binary_cross_entropy(sigmoid(student_logits), teacher)


def euclidean_retention_loss(
    interests: Tensor,
    prev_interests: np.ndarray,
) -> Tensor:
    """DIR ablation: plain Euclidean anchoring of existing interests.

    The paper shows this is *less* flexible than distillation — small
    Euclidean moves can change an interest's semantics while large ones
    may be harmless, so constraining coordinates is the wrong metric.
    """
    k_prev = prev_interests.shape[0]
    if k_prev == 0:
        return Tensor(0.0)
    return mse(interests[:k_prev], Tensor(prev_interests))
