"""Op-by-op reference graphs of the paper's three learned operations.

``src/`` has one implementation of B2I routing (Eqs. 3–4), additive
self-attention (Eqs. 7–9) and the target-attentive sampled-softmax loss
(Eqs. 5–6): the kernels in :mod:`repro.backend.fused`, each one graph
node with a hand-derived backward.  The functions here build the same
equations from the generic autograd ops, one node per op, so autograd
derives their backward independently.  ``tests/test_backend.py`` pins
the kernels to them at float64, in values and in every gradient.

:func:`reference_interests` and :func:`reference_loss` mirror
``model.compute_interests`` and ``model.loss_targets`` and draw the same
random numbers (MIND's routing logits, cold-start capsules), so a twin
model with the same seed sees the same inputs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor, concat
from repro.autograd.ops import log_softmax, softmax, squash, tanh
from repro.models import MIND, ComiRecSA


def _softmax_np(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _squash_np(x: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    sq_norm = (x * x).sum(axis=-1, keepdims=True)
    return x * (sq_norm / (1.0 + sq_norm) / np.sqrt(sq_norm + eps))


def routing_graph(e_hat: Tensor, init_interests: np.ndarray, iterations: int,
                  init_logits: Optional[np.ndarray] = None,
                  normalize: str = "items") -> Tensor:
    """B2I routing over one user's (n, d) transformed items.

    ``normalize="items"`` is a softmax over the items (axis 0 of the
    (n, K) logits), ``"capsules"`` over the capsules (axis 1).  Routing
    weights are constants; the gradient reaches ``e_hat`` only through
    the final ``squash(Cᵀ ê)``.
    """
    axis = {"items": 0, "capsules": 1}[normalize]
    e_np = e_hat.data
    logits = e_np @ init_interests.T
    if init_logits is not None:
        logits = logits + init_logits
    for _ in range(iterations - 1):
        capsules = _squash_np(_softmax_np(logits, axis).T @ e_np)
        logits = logits + e_np @ capsules.T
    coupling = Tensor(_softmax_np(logits, axis))
    return squash(coupling.T @ e_hat)


def sa_graph(embs: Tensor, w1: Tensor, w_u: Tensor) -> Tensor:
    """Eqs. 7–9: attention over ``tanh(E W1ᵀ)``, softmax over items."""
    hidden = tanh(embs @ w1.T)               # (n, d_a)
    attn = softmax(hidden @ w_u, axis=0)     # (n, K)
    return attn.T @ embs                     # (K, d)


def loss_graph(interests: Tensor, target_embs: Tensor,
               negative_embs: Tensor) -> Tensor:
    """Eqs. 5–6: one user's mean sampled-softmax NLL over m targets."""
    m = target_embs.shape[0]
    beta = softmax(target_embs @ interests.T, axis=1)           # (m, K)
    v = beta @ interests                                        # (m, d)
    pos = (v * target_embs).sum(axis=1).reshape(m, 1)
    neg = (negative_embs @ v.reshape(m, -1, 1)).squeeze(-1)     # (m, J)
    logits = concat([pos, neg], axis=1)
    return -log_softmax(logits, axis=1)[:, 0].mean()


def reference_interests(model, state, item_seq: Sequence[int]) -> Tensor:
    """``model.compute_interests`` built from :func:`routing_graph` or
    :func:`sa_graph`."""
    embs = model.embed_items(item_seq)
    if isinstance(model, ComiRecSA):
        return sa_graph(embs, model.w1, state.sa_weights)
    if isinstance(model, MIND):
        init_logits = model._logit_rng.normal(
            0.0, model.logit_std, size=(len(item_seq), state.num_interests))
        return routing_graph(embs @ model.bilinear.T, state.interests,
                             model.routing_iterations, init_logits)
    if model.warm_start:
        init = state.interests
    else:
        init = model._random_interests(state.num_interests)
    return routing_graph(embs @ model.transform.T, init,
                         model.routing_iterations,
                         normalize=model.routing_normalize)


def reference_loss(model, interests: Tensor, targets: Sequence[int],
                   negatives: np.ndarray) -> Tensor:
    """``model.loss_targets`` built from :func:`loss_graph`."""
    target_embs = model.embed_items(targets)
    neg_embs = model.embed_items(np.asarray(negatives).reshape(-1)).reshape(
        len(targets), -1, model.dim)
    return loss_graph(interests, target_embs, neg_embs)
