"""In-graph micro-batched forward for training groups of users at once.

The per-user training loop (``IncrementalStrategy._train``) extracts one
user's interests, scores that user's targets, and takes an optimizer
step — paper-exact, but on small models the per-user Python overhead
and one optimizer step per user dominate wall-clock.  This module
provides the batched counterpart used when
``TrainConfig.users_per_batch > 1``:

* :func:`batched_compute_interests` — pad a group of users into one
  batched *differentiable* extraction (B2I routing for the DR family,
  additive self-attention for SA), masking both the item axis (variable
  sequence length) and the capsule axis (variable ``K_u``);
* :func:`batched_loss_targets` — the sampled-softmax objective (Eq. 6)
  over *all* users' targets in one batched graph, returning the **sum**
  of each user's mean-over-targets loss, so one ``backward()`` produces
  exactly the accumulated gradient of the per-user losses;
* :func:`pad_interest_group` — re-pad per-user interest tensors after
  in-graph hooks (PIT projection) back into a batched block.

Gradients through padding are exact zeros by construction: padded item
slots index a zero row appended *after* the embedding gather (so no
spurious rows are recorded as touched for the sparse optimizer), padded
capsule columns are multiplied out of the final coupling/attention, and
padded targets carry zero loss weight.

Both paths run the same kernels (:mod:`repro.backend.fused`): this
module pads a group into one ``(B, ...)`` block, the per-user model
methods pass a B=1 view.  Per-user values agree with the B=1 path to
round-off, not always bitwise (``tests/test_microbatch.py``): padding
changes the shapes the BLAS calls see.  ``users_per_batch=1`` bypasses
this module entirely.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, pad_rows, stack
from ..backend.fused import (
    fused_dr_interests,
    fused_sa_interests,
    fused_sampled_softmax,
)
from ..nn import Parameter
from ..obs import trace as obs
from .base import MSRModel, UserState
from .comirec_dr import ComiRecDR
from .comirec_sa import ComiRecSA
from .mind import MIND

#: ``(state, history items)`` — one user's extraction job
Job = Tuple[UserState, Sequence[int]]


def supports_batched_training(model: MSRModel) -> bool:
    """Whether :func:`batched_compute_interests` can handle ``model``.

    The three paper models can, with either routing normalization.  Any
    other :class:`MSRModel` (the lifelong baselines' extractors) has no
    batched extraction and trains through the per-user loop.
    """
    return isinstance(model, (ComiRecDR, MIND, ComiRecSA))


def _padded_item_embeddings(
    model: MSRModel, seqs: Sequence[Sequence[int]],
) -> Tuple[Tensor, np.ndarray]:
    """Gather all sequences in one embedding lookup, pad with zero rows.

    Returns the (B, n_max, d) padded embedding Tensor (exact zeros at
    padded slots) and the (B, n_max) boolean item mask.  Padding happens
    *after* the gather via :func:`pad_rows` — only real item ids reach
    the embedding table, so gradients and sparse-row tracking never see
    the padding, and the backward is pure slicing (no scatter).
    """
    lengths = [len(s) for s in seqs]
    n_max = max(lengths)
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
    gathered = model.item_emb(flat)                        # (sum n_u, d)
    mask = np.zeros((len(seqs), n_max), dtype=bool)
    for b, n in enumerate(lengths):
        mask[b, :n] = True
    return pad_rows(gathered, lengths, n_max), mask


def _capsule_padding(states: Sequence[UserState]) -> Tuple[np.ndarray, List[int]]:
    """(B, K_max) capsule mask and the per-user interest counts."""
    ks = [state.num_interests for state in states]
    k_max = max(ks)
    mask = np.zeros((len(states), k_max), dtype=bool)
    for b, k in enumerate(ks):
        mask[b, :k] = True
    return mask, ks


def batched_compute_interests(
    model: MSRModel, jobs: Sequence[Job],
) -> Tuple[Tensor, np.ndarray, List[int]]:
    """Differentiable batched ``compute_interests`` for a user group.

    Returns ``(interests, capsule_mask, ks)`` where ``interests`` is the
    (B, K_max, d) padded interest block (rows beyond ``ks[b]`` are exact
    zeros and carry no gradient) and ``capsule_mask`` is (B, K_max).

    Per-user randomness (MIND's routing logits, cold-start capsule init)
    is drawn user by user in job order, consuming the same RNG streams
    in the same order as the per-user loop would for this group.
    """
    if not jobs:
        raise ValueError("batched_compute_interests needs at least one job")
    for _, seq in jobs:
        if len(seq) == 0:
            raise ValueError("cannot extract interests from an empty sequence")
    if not supports_batched_training(model):
        raise TypeError(
            f"{type(model).__name__} has no batched training path; guard "
            f"call sites with supports_batched_training()")
    obs.counter("batched.extract_calls")
    if model.family == "sa":
        return _extract_sa(model, jobs)
    return _extract_dr(model, jobs)


def _extract_dr(model: MSRModel, jobs: Sequence[Job]):
    """Batched B2I routing (ComiRec-DR / MIND) over the padded group.

    The batched counterpart of :func:`repro.models.routing.b2i_routing`:
    the same kernel, fed the group's padded transformed items, initial
    capsules and (MIND only) random initial logits.
    """
    states = [state for state, _ in jobs]
    capsule_mask, ks = _capsule_padding(states)
    batch, k_max = capsule_mask.shape
    if isinstance(model, ComiRecDR):
        transform, normalize = model.transform, model.routing_normalize
    else:
        transform, normalize = model.bilinear, "items"
    e_hat = _padded_item_embeddings(model, [seq for _, seq in jobs])[0] @ transform.T
    item_mask = np.zeros((batch, e_hat.shape[1]), dtype=bool)
    capsules = np.zeros((batch, k_max, model.dim))
    extra_logits = None
    if isinstance(model, MIND):
        extra_logits = np.zeros((batch, e_hat.shape[1], k_max))
    for b, (state, seq) in enumerate(jobs):
        item_mask[b, :len(seq)] = True
        if isinstance(model, ComiRecDR) and not model.warm_start:
            capsules[b, :ks[b]] = model._random_interests(ks[b])
        else:
            capsules[b, :ks[b]] = state.interests
        if extra_logits is not None:
            extra_logits[b, :len(seq), :ks[b]] = model._logit_rng.normal(
                0.0, model.logit_std, size=(len(seq), ks[b]))
    interests = fused_dr_interests(e_hat, capsules, item_mask, capsule_mask,
                                   extra_logits, model.routing_iterations,
                                   normalize)
    return interests, capsule_mask, ks


def _extract_sa(model: ComiRecSA, jobs: Sequence[Job]):
    """Batched additive self-attention extraction (Eqs. 7–9)."""
    states = [state for state, _ in jobs]
    capsule_mask, ks = _capsule_padding(states)
    embs, item_mask = _padded_item_embeddings(model, [seq for _, seq in jobs])
    user_ws: List[Parameter] = []
    for state, k in zip(states, ks):
        w = state.sa_weights
        if w is None:
            raise ValueError("SA user state is missing attention weights")
        if w.data.shape[1] != k:
            raise ValueError(
                "user attention weights out of sync with interest count: "
                f"{w.data.shape[1]} vs {k}")
        user_ws.append(w)

    interests = fused_sa_interests(embs, model.w1, user_ws, item_mask,
                                   capsule_mask)
    return interests, capsule_mask, ks


def pad_interest_group(
    tensors: Sequence[Tensor], dim: int,
) -> Tuple[Tensor, np.ndarray]:
    """Re-pad per-user (K_u, d) interest tensors into a (B, K_max, d) block.

    Used after in-graph per-user hooks (PIT projection) rewrote the
    sliced interests; gradients flow through the concat/stack back into
    each user's tensor.
    """
    ks = [t.shape[0] for t in tensors]
    k_max = max(ks)
    mask = np.zeros((len(tensors), k_max), dtype=bool)
    rows: List[Tensor] = []
    for b, t in enumerate(tensors):
        mask[b, :ks[b]] = True
        if ks[b] < k_max:
            t = concat([t, Tensor(np.zeros((k_max - ks[b], dim)))], axis=0)
        rows.append(t)
    return stack(rows, axis=0), mask


def batched_loss_targets(
    model: MSRModel,
    interests: Tensor,
    capsule_mask: np.ndarray,
    targets_list: Sequence[Sequence[int]],
    negatives_list: Sequence[np.ndarray],
) -> Tensor:
    """Sampled-softmax loss (Eq. 6) over a whole group in one graph.

    Returns the **sum** over users of that user's mean-over-targets
    loss — the gradient of one backward pass therefore equals the
    accumulated gradients of ``model.loss_targets`` per user, which is
    what one micro-batched optimizer step replaces.
    """
    batch = len(targets_list)
    if interests.shape[0] != batch or len(negatives_list) != batch:
        raise ValueError("group size mismatch between interests/targets/negatives")
    counts = [len(t) for t in targets_list]
    if min(counts) < 1:
        raise ValueError("every user in the group needs at least one target")
    m_max = max(counts)
    num_neg = negatives_list[0].shape[1]

    # one gather for all targets, one for all negatives; padding happens
    # after the gather via pad_rows (exact-zero forward slots, slicing
    # backward — the embedding table never sees padded positions)
    flat_t = np.concatenate([np.asarray(t, dtype=np.int64) for t in targets_list])
    flat_n = np.concatenate([np.asarray(n, dtype=np.int64).reshape(-1)
                             for n in negatives_list])
    weights = np.zeros((batch, m_max))
    for b, m in enumerate(counts):
        weights[b, :m] = 1.0 / m
    target_embs = pad_rows(model.embed_items(flat_t),
                           counts, m_max)            # (B, M, d)
    neg_embs = pad_rows(model.embed_items(flat_n),
                        [m * num_neg for m in counts],
                        m_max * num_neg)             # (B, M·J, d)
    neg_embs = neg_embs.reshape(batch, m_max, num_neg, model.dim)

    return fused_sampled_softmax(interests, target_embs, neg_embs,
                                 capsule_mask, weights)


def batched_snapshot_interests(
    model: MSRModel, jobs: Sequence[Job],
    interests_hook=None,
) -> None:
    """Refresh many users' stored interests with one batched extraction.

    The no-grad counterpart of per-user ``model.snapshot_interests``;
    per-user ``interests_hook(state, interests) -> interests`` (PIT) is
    applied to each user's slice before storing.  Agrees with the
    per-user refresh to floating-point tolerance, not bitwise — hence
    opt-in via ``TrainConfig.batched_snapshots``.
    """
    from ..autograd import no_grad

    jobs = [(state, seq) for state, seq in jobs if len(seq) > 0]
    if not jobs:
        return
    with obs.span("batched_snapshot", users=len(jobs)), no_grad():
        interests, _, ks = batched_compute_interests(model, jobs)
        for b, (state, _) in enumerate(jobs):
            per_user = interests[b, :ks[b]]
            if interests_hook is not None:
                per_user = interests_hook(state, per_user)
            state.interests = per_user.data.copy()
