"""Functional operations built on :class:`repro.autograd.tensor.Tensor`.

These cover the specific operations the paper's models need: numerically
stable softmax / log-softmax (used by routing votes, attention, and the
sampled-softmax loss), the capsule *squash* nonlinearity (Sabour et al.,
2017), and small conveniences.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .tensor import Tensor

TensorLike = Union[Tensor, np.ndarray, float, list]


def _t(x: TensorLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _t(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = _t(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def sigmoid(x: TensorLike) -> Tensor:
    return _t(x).sigmoid()


def tanh(x: TensorLike) -> Tensor:
    return _t(x).tanh()


def relu(x: TensorLike) -> Tensor:
    return _t(x).relu()


def exp(x: TensorLike) -> Tensor:
    return _t(x).exp()


def log(x: TensorLike) -> Tensor:
    return _t(x).log()


def squash(x: TensorLike, axis: int = -1, eps: float = 1e-9) -> Tensor:
    """Capsule squash nonlinearity (Sabour et al., 2017).

    Keeps the direction of ``x`` while mapping its magnitude into [0, 1):
    ``squash(v) = (|v|^2 / (1 + |v|^2)) * v / |v|``.

    The paper applies this to high-level interest capsules (Eq. 4); interest
    *existence* is then read off the output's L2 norm, which PIT exploits
    (Eq. 17).
    """
    x = _t(x)
    sq_norm = (x * x).sum(axis=axis, keepdims=True)
    scale = sq_norm / (1.0 + sq_norm) / (sq_norm + eps) ** 0.5
    return x * scale


def binary_cross_entropy(pred: Tensor, target: Tensor, eps: float = 1e-9) -> Tensor:
    """Mean binary cross-entropy between probabilities ``pred`` and ``target``.

    Used by the EIR distillation loss (Eq. 10) where both arguments are
    sigmoid-softened logits, following Wang et al.'s practical formulation.

    The clip bound is at least the dtype's machine epsilon: in float32,
    ``1 - 1e-9`` rounds to ``1.0``, so a saturated sigmoid would reach
    ``log(0)``.  In float64 the bound stays ``eps``.
    """
    eps = max(eps, float(np.finfo(pred.data.dtype).eps))
    pred = pred.clip(eps, 1.0 - eps)
    loss = -(target * pred.log() + (1.0 - target) * (1.0 - pred).log())
    return loss.mean()


def cross_entropy_with_soft_targets(logits: Tensor, soft_targets: Tensor, axis: int = -1) -> Tensor:
    """Mean cross-entropy ``-sum(p_target * log_softmax(logits))``.

    This is the classic softmax distillation loss (Hinton et al., 2015),
    used by the IMSR(KD1/KD2/KD3) ablation variants.
    """
    logp = log_softmax(logits, axis=axis)
    per_example = -(soft_targets * logp).sum(axis=axis)
    return per_example.mean()


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error; backs the DIR (distance-based retainer) ablation."""
    diff = a - b
    return (diff * diff).mean()

