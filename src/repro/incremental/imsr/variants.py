"""Retainer-loss variants for the Fig. 5 ablation study.

The paper compares EIR's sigmoid distillation (Eq. 10) against a
Euclidean anchor (**DIR**) and three softmax-based distillation losses
(**KD1/KD2/KD3**, after LwF, semantic-aware KD, and BiC respectively).
All share the signature
``fn(interests, prev_interests, target_embs, temperature) -> Tensor``.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ...autograd import Tensor
from ...autograd.ops import log_softmax
from .eir import euclidean_retention_loss, sigmoid_distillation_loss

RetainerFn = Callable[..., Tensor]


def _teacher_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def kd1_interest_softmax(
    interests: Tensor, prev_interests: np.ndarray, target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """KD1 (LwF-style): per target item, match the distribution *over
    existing interests* — which interest would claim this item."""
    k_prev = prev_interests.shape[0]
    if k_prev == 0:
        return Tensor(0.0)
    student_logits = (target_embs @ interests[:k_prev].T) * (1.0 / temperature)
    # the teacher distribution is a constant (LwF)
    teacher_logits = (target_embs.data @ prev_interests.T) / temperature
    teacher = Tensor(_teacher_softmax(teacher_logits, axis=1))
    logp = log_softmax(student_logits, axis=1)
    return -(teacher * logp).sum(axis=1).mean()


def kd2_item_softmax(
    interests: Tensor, prev_interests: np.ndarray, target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """KD2 (semantic-aware style): per existing interest, match the
    distribution *over the span's target items* — which items this
    interest claims."""
    k_prev = prev_interests.shape[0]
    if k_prev == 0:
        return Tensor(0.0)
    student_logits = (interests[:k_prev] @ target_embs.T) * (1.0 / temperature)
    # the teacher distribution is a constant (KD)
    teacher_logits = (prev_interests @ target_embs.data.T) / temperature
    teacher = Tensor(_teacher_softmax(teacher_logits, axis=1))
    logp = log_softmax(student_logits, axis=1)
    return -(teacher * logp).sum(axis=1).mean()


def kd3_scaled_softmax(
    interests: Tensor, prev_interests: np.ndarray, target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """KD3 (BiC-style): KD1's loss at doubled temperature with the
    classic ``τ²`` gradient-magnitude correction (Hinton et al., 2015)."""
    tau = 2.0 * temperature
    return kd1_interest_softmax(
        interests, prev_interests, target_embs, temperature=tau
    ) * (tau * tau)


def dir_euclidean(
    interests: Tensor, prev_interests: np.ndarray, target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """DIR: distance-based regularizer (ignores the targets)."""
    return euclidean_retention_loss(interests, prev_interests)


def eir_sigmoid(
    interests: Tensor, prev_interests: np.ndarray, target_embs: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """The paper's EIR (Eq. 10)."""
    return sigmoid_distillation_loss(
        interests, prev_interests, target_embs, temperature=temperature
    )


RETAINERS: Dict[str, RetainerFn] = {
    "EIR": eir_sigmoid,
    "DIR": dir_euclidean,
    "KD1": kd1_interest_softmax,
    "KD2": kd2_item_softmax,
    "KD3": kd3_scaled_softmax,
}


def get_retainer(name: str) -> RetainerFn:
    if name not in RETAINERS:
        raise KeyError(f"unknown retainer {name!r}; options: {sorted(RETAINERS)}")
    return RETAINERS[name]
