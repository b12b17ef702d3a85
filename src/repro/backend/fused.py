"""The one implementation of the paper's three learned operations.

B2I dynamic routing (Eqs. 3–4), additive self-attention (Eqs. 7–9) and
the target-attentive sampled-softmax loss (Eqs. 5–6) each run here as
one numpy forward with a hand-derived backward, registered as a
*single* graph node whose per-parent closures share one cached backward
computation.  Both backends run the same kernels; ``fast`` changes only
the compute dtype.

Each kernel works on a padded ``(B, ...)`` block.  The batched training
engine (``models/batched_train.py``) passes masks for ragged sequence
lengths and interest counts; the per-user model methods call the
``*_single`` entry points, which view one user's arrays as B=1 (numpy
views, no extra graph nodes) and drop the leading batch axis from every
parent gradient on the way out.

The op-by-op autograd graphs of the same equations live only in the
test suite (``tests/reference_graphs.py``), which pins every kernel to
them at float64 to 1e-12 in values and in every parameter gradient, and
checks the backwards against finite differences.

This module imports :mod:`repro.autograd` and therefore must only be
imported from model code, never from ``repro.backend.__init__`` (the
tensor engine imports the backend package to learn its dtype).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor

_NEG = -1e30  # additive mask for padded positions


def _const(value: float, dt: np.dtype):
    return np.asarray(value, dtype=dt)


def _squeeze0(parents):
    """Re-target B=1 kernel parents, stripping grads' leading batch axis.

    Gradients that the batched closure already returns unbatched (the
    shared ``W1``) are marked by the kernels with ``fn.unbatched``.
    """
    out = []
    for parent, fn in parents:
        if getattr(fn, "unbatched", False):
            out.append((parent, fn))
        else:
            out.append((parent, lambda g, fn=fn: fn(g[None])[0]))
    return out


# ---------------------------------------------------------------------- #
# masked batched softmaxes of (B, n, K) routing logits
# ---------------------------------------------------------------------- #
def _masked_softmax_items(logits: np.ndarray,
                          item_mask: Optional[np.ndarray]) -> np.ndarray:
    """Softmax over the items (axis 1) of (B, n, K) logits, masking padding.

    With ``item_mask=None`` (per-user call: every slot real) the masking
    terms drop out and this is the plain softmax over axis 1.
    """
    dt = logits.dtype
    if item_mask is None:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
    masked = np.where(item_mask[:, :, None], logits, _const(_NEG, dt))
    shifted = masked - masked.max(axis=1, keepdims=True)
    exp = np.exp(shifted) * item_mask[:, :, None]
    denom = exp.sum(axis=1, keepdims=True)
    return exp / np.maximum(denom, _const(1e-30, dt))


def _masked_softmax_capsules(logits: np.ndarray,
                             capsule_mask: Optional[np.ndarray]) -> np.ndarray:
    """Softmax over the capsules (axis 2) of (B, n, K) logits.

    Padded capsule columns are set to ``_NEG`` before the max is taken,
    so they get exactly zero weight and real columns normalise among
    themselves.  Padded item rows need no mask: their transformed
    embeddings are exact zeros, so they add nothing to the votes.
    """
    if capsule_mask is not None:
        logits = np.where(capsule_mask[:, None, :], logits,
                          _const(_NEG, logits.dtype))
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=2, keepdims=True)


def _squash_np(x: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Capsule squash over the last axis, for the no-grad iterations."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x * (sq / (1.0 + sq) / np.sqrt(sq + eps))


# ---------------------------------------------------------------------- #
# B2I dynamic routing (ComiRec-DR / MIND)
# ---------------------------------------------------------------------- #
def _dr_kernel(e_hat: Tensor, E: np.ndarray, capsules0: np.ndarray,
               item_mask: Optional[np.ndarray],
               capsule_mask: Optional[np.ndarray],
               extra_logits: Optional[np.ndarray],
               iterations: int, normalize: str, eps: float = 1e-9):
    """Shared batched routing kernel over (B, n, d) transformed items.

    ``normalize`` picks the vote softmax: ``"items"`` (paper text, over
    axis 1) or ``"capsules"`` (MIND/ComiRec reference code, over axis 2).
    Routing weights are constants for backprop (MIND/ComiRec practice);
    the only parent is ``e_hat``, reached through the final
    ``squash(Cᵀ ê)``.
    """
    if normalize == "items":
        vote_softmax, vote_mask = _masked_softmax_items, item_mask
    elif normalize == "capsules":
        vote_softmax, vote_mask = _masked_softmax_capsules, capsule_mask
    else:
        raise ValueError(
            f"normalize must be 'items' or 'capsules', got {normalize!r}")
    dt = E.dtype
    caps = capsules0.astype(dt, copy=False)
    logits = np.empty((E.shape[0], E.shape[1], caps.shape[1]), dtype=dt)
    # contractions run as batched BLAS GEMMs (np.matmul); np.einsum's
    # C fallback is several times slower at these shapes
    np.matmul(E, caps.transpose(0, 2, 1), out=logits)     # bnd,bkd->bnk
    if extra_logits is not None:
        logits += extra_logits.astype(dt, copy=False)
    for _ in range(iterations - 1):
        coupling = vote_softmax(logits, vote_mask)
        caps = _squash_np(np.matmul(coupling.transpose(0, 2, 1), E), eps=eps)
        logits += np.matmul(E, caps.transpose(0, 2, 1))
    coupling = vote_softmax(logits, vote_mask)
    if capsule_mask is not None:
        coupling = coupling * capsule_mask[:, None, :]
    votes = np.matmul(coupling.transpose(0, 2, 1), E)  # V (B, K, d)
    sq = (votes * votes).sum(axis=-1, keepdims=True)  # q = |V|² (B, K, 1)
    inv1 = 1.0 / (1.0 + sq)
    root = np.sqrt(sq + eps)
    scale = sq * inv1 / root
    out = votes * scale

    def grad_e_hat(g: np.ndarray) -> np.ndarray:
        # squash backward: dV = g·s + V (2 (g·V) ds/dq), then dE = C dV
        ds_dq = inv1 / root - sq * inv1 * inv1 / root \
            - 0.5 * sq * inv1 / (root * (sq + eps))
        gv = g * scale + votes * (
            2.0 * (g * votes).sum(axis=-1, keepdims=True) * ds_dq)
        return np.matmul(coupling, gv)                 # bnk,bkd->bnd

    return Tensor._make(out, [(e_hat, grad_e_hat)])


def fused_dr_interests(e_hat: Tensor, capsules0: np.ndarray,
                       item_mask: np.ndarray, capsule_mask: np.ndarray,
                       extra_logits: Optional[np.ndarray],
                       iterations: int, normalize: str) -> Tensor:
    """Batched routing over a padded (B, n, d) group."""
    return _dr_kernel(e_hat, e_hat.data, capsules0, item_mask, capsule_mask,
                      extra_logits, iterations, normalize)


def fused_dr_interests_single(e_hat: Tensor, init_interests: np.ndarray,
                              iterations: int,
                              init_logits: Optional[np.ndarray],
                              normalize: str) -> Tensor:
    """One user's routing: the B=1 view behind ``b2i_routing``."""
    extra = None if init_logits is None else init_logits[None]
    node = _dr_kernel(e_hat, e_hat.data[None], init_interests[None],
                      None, None, extra, iterations, normalize)
    return Tensor._make(node.data[0], _squeeze0(node._backward_fns))


# ---------------------------------------------------------------------- #
# additive self-attention (ComiRec-SA)
# ---------------------------------------------------------------------- #
def _sa_kernel(embs: Tensor, w1, user_ws: Sequence, E: np.ndarray,
               item_mask: Optional[np.ndarray],
               capsule_mask: Optional[np.ndarray]):
    """Batched SA extraction over (B, n, d) item embeddings.

    Parents: the embedding block, the shared ``W1`` and each user's
    attention matrix; one cached backward computes all of their grads.
    The softmax jacobian legitimately uses the capsule-masked attention:
    the softmax runs per (user, capsule) column over items, masked
    columns carry zero upstream gradient, and unmasked columns are
    untouched by the mask — column by column the two coincide.
    """
    dt = E.dtype
    batch, n, _ = E.shape
    W1 = w1.data.astype(dt, copy=False)
    d_a = W1.shape[0]
    ks = [w.data.shape[1] for w in user_ws]
    k_max = capsule_mask.shape[1] if capsule_mask is not None else max(ks)

    w_pad = np.zeros((batch, d_a, k_max), dtype=dt)
    for b, w in enumerate(user_ws):
        # slice assignment copies w.data into the pad; no alias survives
        w_pad[b, :, :ks[b]] = w.data
    hidden = np.empty((batch, n, d_a), dtype=dt)
    np.matmul(E, W1.T, out=hidden)
    np.tanh(hidden, out=hidden)                       # H = tanh(E W1ᵀ)
    logits = np.empty((batch, n, k_max), dtype=dt)
    np.matmul(hidden, w_pad, out=logits)
    if item_mask is not None:
        logits += np.where(item_mask[:, :, None], _const(0.0, dt),
                           _const(_NEG, dt))
    attn = np.empty((batch, n, k_max), dtype=dt)     # softmax over items
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=1, keepdims=True)
    if capsule_mask is not None:
        attn *= capsule_mask[:, None, :]
    out = np.matmul(attn.transpose(0, 2, 1), E)       # fresh (B, K, d)

    cache: dict = {}

    def _shared(g: np.ndarray) -> dict:
        if not cache:
            d_attn = np.matmul(E, g.transpose(0, 2, 1))          # (B, n, K)
            d_e = np.matmul(attn, g)                             # (B, n, d)
            d_logits = attn * (d_attn
                               - (d_attn * attn).sum(axis=1, keepdims=True))
            d_hidden = np.matmul(d_logits, w_pad.transpose(0, 2, 1))
            d_wpad = np.matmul(hidden.transpose(0, 2, 1), d_logits)
            d_pre = d_hidden * (1.0 - hidden * hidden)           # tanh'
            d_e += np.matmul(d_pre, W1)
            cache["d_e"] = d_e
            cache["d_w1"] = np.tensordot(d_pre, E,      # bna,bnd->ad
                                         axes=([0, 1], [0, 1]))
            cache["d_wpad"] = d_wpad
        return cache

    def grad_w1(g: np.ndarray) -> np.ndarray:
        return _shared(g)["d_w1"]
    grad_w1.unbatched = True  # summed over the batch: already (d_a, d)

    parents = [(embs, lambda g: _shared(g)["d_e"]), (w1, grad_w1)]
    for b, w in enumerate(user_ws):
        def grad_wu(g: np.ndarray, b=b, k=ks[b]) -> np.ndarray:
            return _shared(g)["d_wpad"][b, :, :k]
        grad_wu.unbatched = True  # per-user slice: already (d_a, k)
        parents.append((w, grad_wu))
    return Tensor._make(out, parents)


def fused_sa_interests(embs: Tensor, w1, user_ws: Sequence,
                       item_mask: np.ndarray,
                       capsule_mask: np.ndarray) -> Tensor:
    """Batched self-attention over a padded (B, n, d) group."""
    return _sa_kernel(embs, w1, user_ws, embs.data, item_mask, capsule_mask)


def fused_sa_interests_single(embs: Tensor, w1, w_u) -> Tensor:
    """One user's self-attention: the B=1 view behind ``ComiRecSA``."""
    node = _sa_kernel(embs, w1, [w_u], embs.data[None], None, None)
    return Tensor._make(node.data[0], _squeeze0(node._backward_fns))


# ---------------------------------------------------------------------- #
# sampled-softmax loss (Eq. 6) with target-attentive aggregation (Eq. 5)
# ---------------------------------------------------------------------- #
def _loss_kernel(interests: Tensor, target_embs: Tensor, neg_embs: Tensor,
                 I: np.ndarray, Te: np.ndarray, Ne: np.ndarray,
                 capsule_mask: Optional[np.ndarray], weights: np.ndarray,
                 batched: bool) -> Tensor:
    """Weighted sampled-softmax NLL over a (B, M, J) target/negative block.

    Returns ``sum_b sum_m weights[b, m] * nll[b, m]`` as a scalar; with
    per-user weights ``1/m`` this is the batched group loss, and with
    B=1 (``batched=False``, arrays expanded by the caller) it is one
    user's mean-over-targets loss.
    """
    dt = I.dtype
    w = weights.astype(dt, copy=False)

    IT = I.transpose(0, 2, 1)                        # (B, d, K) view
    att = np.matmul(Te, IT)                          # Eq. 5 logits (bmk)
    if capsule_mask is not None:
        att += np.where(capsule_mask, _const(0.0, dt),
                        _const(_NEG, dt))[:, None, :]
    beta = np.empty(att.shape, dtype=dt)             # softmax over capsules
    np.subtract(att, att.max(axis=2, keepdims=True), out=beta)
    np.exp(beta, out=beta)
    beta /= beta.sum(axis=2, keepdims=True)          # (B, M, K)
    v = np.empty(Te.shape, dtype=dt)
    np.matmul(beta, I, out=v)                        # aggregated vec (bmd)
    pos = (v * Te).sum(axis=2)                       # (B, M)
    neg = np.matmul(Ne, v[..., None])[..., 0]        # bmjd,bmd->bmj
    logits = np.concatenate([pos[..., None], neg], axis=2)
    shifted = logits - logits.max(axis=2, keepdims=True)
    prob = np.empty(shifted.shape, dtype=dt)
    np.exp(shifted, out=prob)
    denom = prob.sum(axis=2, keepdims=True)
    # denom >= 1: the row max contributes exp(0) = 1 to the sum
    nll = np.log(denom[..., 0]) - shifted[..., 0]
    prob /= denom                                    # kept for backward
    out = np.asarray((nll * w).sum(), dtype=dt)

    cache: dict = {}

    def _shared(g: np.ndarray) -> dict:
        if not cache:
            wg = (np.asarray(g, dtype=dt) * w)[..., None]   # (B, M, 1)
            d_logits = wg * prob
            d_logits[..., 0] -= wg[..., 0]                  # − w · e₀
            d_pos = d_logits[..., 0]
            d_neg = d_logits[..., 1:]
            d_v = d_pos[..., None] * Te \
                + np.matmul(d_neg[:, :, None, :], Ne)[:, :, 0, :]
            d_beta = np.matmul(d_v, IT)                      # bmd,bkd->bmk
            d_att = beta * (d_beta
                            - (d_beta * beta).sum(axis=2, keepdims=True))
            cache["d_i"] = np.matmul(beta.transpose(0, 2, 1), d_v) \
                + np.matmul(d_att.transpose(0, 2, 1), Te)    # bmk,bmd->bkd
            cache["d_te"] = d_pos[..., None] * v \
                + np.matmul(d_att, I)                        # bmk,bkd->bmd
            cache["d_ne"] = d_neg[..., None] * v[:, :, None, :]
        return cache

    parents = [(interests, lambda g: _shared(g)["d_i"]),
               (target_embs, lambda g: _shared(g)["d_te"]),
               (neg_embs, lambda g: _shared(g)["d_ne"])]
    if not batched:
        # the caller expanded B=1 views; grads must drop that axis (the
        # upstream scalar g needs no expansion, unlike _squeeze0's case)
        parents = [(p, lambda g, fn=fn: fn(g)[0]) for p, fn in parents]
    return Tensor._make(out, parents)


def fused_sampled_softmax(interests: Tensor, target_embs: Tensor,
                          neg_embs: Tensor, capsule_mask: np.ndarray,
                          weights: np.ndarray) -> Tensor:
    """Batched loss over a padded (B, M, J) target/negative block."""
    return _loss_kernel(interests, target_embs, neg_embs,
                        interests.data, target_embs.data, neg_embs.data,
                        capsule_mask, weights, batched=True)


def fused_sampled_softmax_single(interests: Tensor, target_embs: Tensor,
                                 neg_embs: Tensor) -> Tensor:
    """One user's mean-over-targets loss (B=1 view)."""
    m = target_embs.shape[0]
    weights = np.full((1, m), 1.0 / m)
    return _loss_kernel(interests, target_embs, neg_embs,
                        interests.data[None], target_embs.data[None],
                        neg_embs.data[None], None, weights, batched=False)
