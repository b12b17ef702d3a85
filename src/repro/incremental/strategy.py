"""Base class and shared training loop for incremental learning strategies.

Every strategy (FR, FT, SML, ADER, IMSR, and the ablation variants) shares
the same skeleton, mirroring the paper's protocol:

1. ``pretrain()`` on the ``[0, alpha*Z]`` window;
2. for each incremental span ``t``: ``train_span(t)`` using (at least) the
   span's new interactions;
3. after each span, user interest snapshots are refreshed and the model is
   evaluated on span ``t+1``'s test items (handled by the experiment
   runner via :meth:`score_user`).

The paper trains each user by splitting their in-span interactions into a
historical part (interests are extracted from it) and a target-item set
(all scored against those interests) — see Section IV-E.  That split is
what :class:`UserPayload` captures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.sampler import NegativeSampler
from ..data.schema import SpanDataset, TemporalSplit
from ..faults import fire as _fault_probe
from ..models.base import MSRModel, UserState
from ..nn import Adam, SparseAdam, clip_grad_norm
from ..obs import prof as _prof
from ..obs import trace as obs
from ..sanitize import capture as _capture


@dataclass
class TrainConfig:
    """Hyperparameters shared by all strategies."""

    epochs_pretrain: int = 12
    epochs_incremental: int = 4
    lr: float = 0.02
    num_negatives: int = 10
    #: fraction of a user's in-span items used as extraction history;
    #: the remainder become the target set (paper Section IV-E)
    history_fraction: float = 0.5
    grad_clip: float = 5.0
    seed: int = 0
    #: cap on per-user targets per span (keeps epochs bounded)
    max_targets: int = 24
    #: stop an epoch loop early when validation HR@20 stops improving
    #: (the paper performs early stopping during training)
    early_stopping: bool = False
    patience: int = 2
    #: users per optimizer step.  1 (default) is the paper-exact per-user
    #: loop; >1 pads a group of users into one batched autograd forward
    #: (see repro.models.batched_train) and takes one step per group —
    #: same accumulated gradient to float tolerance, different RNG
    #: consumption (negatives drawn per group, not per target)
    users_per_batch: int = 1
    #: update only the embedding rows touched each step (SparseAdam)
    #: instead of dense Adam.  Documented deviation: untouched rows skip
    #: their momentum-tail decay between touches (see docs/PERFORMANCE.md)
    sparse_adam: bool = False
    #: refresh user interest snapshots with one batched no-grad
    #: extraction per span instead of per user.  Float-tolerance
    #: equivalent, not bitwise — hence opt-in
    batched_snapshots: bool = False


@dataclass
class UserPayload:
    """One user's training material for one span."""

    user: int
    history: List[int]
    targets: List[int]


def build_payloads(span: SpanDataset, config: TrainConfig,
                   include_val: bool = True) -> List[UserPayload]:
    """Split each user's in-span items into history + target set."""
    payloads: List[UserPayload] = []
    for user in span.user_ids():
        data = span.users[user]
        items = list(data.train_items)
        if include_val and data.val_item is not None:
            items.append(data.val_item)
        if len(items) < 2:
            continue
        cut = max(1, int(round(len(items) * config.history_fraction)))
        cut = min(cut, len(items) - 1)
        targets = items[cut:]
        if len(targets) > config.max_targets:
            targets = targets[-config.max_targets:]
        payloads.append(UserPayload(user=user, history=items[:cut], targets=targets))
    return payloads


def merge_payload_items(*payload_lists: Sequence[UserPayload]) -> Dict[int, List[int]]:
    """Per-user concatenation of history+targets across payload lists."""
    merged: Dict[int, List[int]] = {}
    for payloads in payload_lists:
        for p in payloads:
            merged.setdefault(p.user, []).extend(p.history + p.targets)
    return merged


def encode_json_state(payload) -> np.ndarray:
    """JSON-serializable object -> uint8 array, for checkpoint storage."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8)


def decode_json_state(arr: np.ndarray):
    """Inverse of :func:`encode_json_state`."""
    return json.loads(np.ascontiguousarray(arr, dtype=np.uint8)
                      .tobytes().decode("utf-8"))


class IncrementalStrategy:
    """Skeleton for the compared learning strategies."""

    name = "base"

    def __init__(self, model: MSRModel, split: TemporalSplit, config: TrainConfig):
        self.model = model
        self.split = split
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.sampler = NegativeSampler(
            split.num_items, num_negatives=config.num_negatives,
            rng=np.random.default_rng(config.seed + 1),
        )
        all_users = self._all_user_ids()
        self.states: Dict[int, UserState] = model.init_all_users(all_users)
        #: wall-clock seconds per training call, keyed by span (0 = pretrain)
        self.train_times: Dict[int, float] = {}
        #: wall-clock seconds per snapshot re-extraction, same keying —
        #: the "extract" half of the span that train_times never covered
        self.extract_times: Dict[int, float] = {}
        #: span the strategy is currently working on (timing attribution;
        #: set by pretrain/train_span and by the experiment runner)
        self._current_span = 0
        #: lifetime optimizer-step counter (fault-injection probe index)
        self._fault_step = 0

    # ------------------------------------------------------------------ #
    def _all_user_ids(self) -> List[int]:
        users = set(self.split.pretrain.users)
        for span in self.split.spans:
            users.update(span.users)
        return sorted(users)

    # ------------------------------------------------------------------ #
    # public protocol
    # ------------------------------------------------------------------ #
    def set_current_span(self, span: int) -> None:
        """Attribute subsequent timing/telemetry to ``span`` (0 = pretrain)."""
        self._current_span = int(span)

    def pretrain(self) -> float:
        """Train the base model on the pre-training window."""
        self.set_current_span(0)
        payloads = build_payloads(self.split.pretrain, self.config)
        start = time.perf_counter()
        self._train(payloads, epochs=self.config.epochs_pretrain)
        elapsed = time.perf_counter() - start
        self._refresh_snapshots(self.split.pretrain)
        self.train_times[0] = elapsed
        return elapsed

    def train_span(self, t: int) -> float:
        """Update the model with span ``t`` (1-based).  Returns seconds."""
        raise NotImplementedError

    def score_user(self, user: int) -> np.ndarray:
        """Catalog scores for evaluation (max over stored interests)."""
        return self.model.score_all_items(self.states[user])

    def score_users(self, users: Sequence[int],
                    exact: bool = True) -> np.ndarray:
        """Catalog scores for many users at once — the evaluator's batched
        fast path.  The default (``exact=True``) is bit-identical to
        stacking :meth:`score_user` calls: it issues the same per-user
        GEMM through :func:`repro.models.score_items_batch`.
        ``exact=False`` scores all users in one stacked GEMM —
        float-tolerance, maximum throughput (see the perf probe).
        Strategies that override :meth:`score_user` (MIMN, LimaRec) are
        detected and scored through their own override."""
        if type(self).score_user is not IncrementalStrategy.score_user:
            return np.stack([self.score_user(u) for u in users])
        from ..models.aggregator import score_items_batch

        return score_items_batch(
            [self.states[u].interests for u in users],
            self.model.item_emb.weight.data,
            exact=exact,
        )

    def interest_counts(self) -> Dict[int, int]:
        return {u: s.num_interests for u, s in self.states.items()}

    def random_generators(self) -> Dict[str, np.random.Generator]:
        """Every RNG whose stream must survive a checkpoint/restore for
        a resumed run to be bit-identical to an uninterrupted one.
        Strategies with extra generators extend this mapping."""
        return {
            "strategy": self.rng,
            "sampler": self.sampler.rng,
            "model": self.model.rng,
        }

    def extra_state(self) -> Dict[str, np.ndarray]:
        """Strategy-specific arrays beyond the base state (model
        parameters, user states, RNG streams) that must survive a
        checkpoint for a resumed run to execute the same algorithm —
        replay pools, Fisher estimates, diagnostic logs.  Stored under
        ``extra/`` in the archive and checksummed like every other
        array.  Strategies carrying such state override this *together
        with* :meth:`load_extra_state`; the base strategy has none."""
        return {}

    def load_extra_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore the mapping produced by :meth:`extra_state`.

        Overrides must ``pop`` the keys they own, delegate the remainder
        to ``super()``, and only then mutate ``self`` — so an unexpected
        key fails the load before any state changes.  The base strategy
        owns no extra state, so any leftover key is a checkpoint /
        strategy mismatch."""
        if arrays:
            raise ValueError(
                f"checkpoint carries extra strategy state "
                f"{sorted(arrays)[:5]} that {type(self).__name__} does "
                f"not know how to restore")

    # ------------------------------------------------------------------ #
    # shared training machinery
    # ------------------------------------------------------------------ #
    def _optimizer(self, payloads: Sequence[UserPayload]) -> Adam:
        params = list(self.model.parameters())
        involved = [self.states[p.user] for p in payloads]
        params.extend(self.model.user_parameters(involved))
        optimizer = SparseAdam if self.config.sparse_adam else Adam
        return optimizer(params, lr=self.config.lr)

    def _train(
        self,
        payloads: Sequence[UserPayload],
        epochs: int,
        loss_hook: Optional[Callable[[UserState, Tensor, UserPayload], Optional[Tensor]]] = None,
        epoch_hook: Optional[Callable[[int, UserPayload], None]] = None,
        interests_hook: Optional[Callable[[UserState, Tensor], Tensor]] = None,
        val_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        """The core loop: per user, extract interests once and score all
        the user's targets (paper Section IV-E).

        ``loss_hook(state, interests, payload)`` may return an extra loss
        term (e.g. EIR's distillation).  ``epoch_hook(epoch, payload)``
        runs before each user's step (IMSR's IntsEx).  ``interests_hook``
        post-processes the extracted interests in-graph (PIT projection).
        ``val_fn`` (or the config's ``early_stopping`` default, which
        scores the payloads' validation split) enables early stopping.

        ``config.users_per_batch > 1`` switches to the micro-batched
        engine: groups of users are padded into one batched forward and
        one optimizer step per group (:mod:`repro.models.batched_train`).
        The default of 1 runs this exact loop, bit-identical to the
        historical behavior.
        """
        if not payloads:
            return
        opt = self._optimizer(payloads)
        group_size = max(1, int(self.config.users_per_batch))
        from ..models.batched_train import supports_batched_training

        use_groups = group_size > 1 and supports_batched_training(self.model)
        order = list(payloads)
        best_val = -np.inf
        stale_epochs = 0
        for epoch in range(epochs):
            self.rng.shuffle(order)
            with obs.span("epoch", epoch=epoch, span_id=self._current_span,
                          users=len(order)):
                if use_groups:
                    for start in range(0, len(order), group_size):
                        group = order[start:start + group_size]
                        with obs.span("user_batch", size=len(group)):
                            self._train_group(group, epoch, opt, loss_hook,
                                              epoch_hook, interests_hook)
                else:
                    for payload in order:
                        self._train_user(payload, epoch, opt, loss_hook,
                                         epoch_hook, interests_hook)
            if val_fn is not None or self.config.early_stopping:
                score = val_fn() if val_fn is not None else (
                    self._payload_val_score(payloads))
                if score > best_val + 1e-9:
                    best_val = score
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= self.config.patience:
                        break

    def _train_user(
        self,
        payload: UserPayload,
        epoch: int,
        opt: Adam,
        loss_hook=None,
        epoch_hook=None,
        interests_hook=None,
    ) -> bool:
        """One user's training step — the paper-exact per-user path, and
        the stream's per-event step (one target, no hooks).  Returns
        whether the step was taken."""
        state = self.states[payload.user]
        if epoch_hook is not None:
            epoch_hook(epoch, payload)
        opt = self._sync_optimizer(opt, state)
        interests = self.model.compute_interests(state, payload.history)
        if interests_hook is not None:
            interests = interests_hook(state, interests)
        negatives = np.stack(
            [self.sampler.sample(t) for t in payload.targets]
        )
        loss = self.model.loss_targets(interests, payload.targets, negatives)
        if loss_hook is not None:
            extra = loss_hook(state, interests, payload)
            if extra is not None:
                loss = loss + extra
        if not self._step(loss, opt, payload.user):
            return False
        state.interests = _capture(interests.data.copy())
        return True

    def _train_group(
        self,
        group: Sequence[UserPayload],
        epoch: int,
        opt: Adam,
        loss_hook=None,
        epoch_hook=None,
        interests_hook=None,
    ) -> None:
        """One micro-batch: a batched forward over ``group`` and a single
        optimizer step whose gradient is the accumulated per-user
        gradient (sum of each user's mean-over-targets loss).

        Per-user hooks keep their exact per-user semantics by operating
        on in-graph slices of the padded interest block: epoch hooks
        (NID expansion / PIT trimming) run for the whole group *before*
        extraction so the capsule layout is fixed, ``interests_hook``
        rewrites each user's slice (the slices are re-padded for the
        loss), and ``loss_hook`` contributes per-user extra terms.  One
        fault probe fires per optimizer step, and a non-finite group
        loss skips the whole group's step (same containment rule as the
        per-user path, at group granularity).
        """
        from ..models.batched_train import (
            batched_compute_interests,
            batched_loss_targets,
            pad_interest_group,
        )

        for payload in group:
            if epoch_hook is not None:
                epoch_hook(epoch, payload)
                opt = self._sync_optimizer(opt, self.states[payload.user])
        # hooks may have expanded/trimmed states — re-read them now
        jobs = [(self.states[p.user], p.history) for p in group]
        interests, capsule_mask, ks = batched_compute_interests(self.model, jobs)
        per_user: Optional[List[Tensor]] = None
        if interests_hook is not None or loss_hook is not None:
            per_user = [interests[b, :ks[b]] for b in range(len(group))]
        if interests_hook is not None:
            per_user = [interests_hook(state, t)
                        for (state, _), t in zip(jobs, per_user)]
            interests, capsule_mask = pad_interest_group(per_user, self.model.dim)
        negatives = [self.sampler.sample_batch(p.targets) for p in group]
        loss = batched_loss_targets(
            self.model, interests, capsule_mask,
            [p.targets for p in group], negatives,
        )
        if loss_hook is not None:
            for (state, _), t, payload in zip(jobs, per_user, group):
                extra = loss_hook(state, t, payload)
                if extra is not None:
                    loss = loss + extra
        if not self._step(loss, opt, group[0].user):
            return
        obs.observe("batched.group_size", len(group))
        for b, (state, _) in enumerate(jobs):
            source = per_user[b].data if per_user is not None else (
                interests.data[b, :ks[b]])
            state.interests = _capture(source.copy())

    def _step(self, loss: Tensor, opt: Adam, user: int) -> bool:
        """One optimizer step on ``loss``; False when it was skipped.

        One fault probe fires per step.  Failure containment: a
        non-finite loss (degenerate negatives, exploded logits) must not
        poison the parameters, so its step is skipped and counted."""
        mods = _fault_probe("train-step", step=self._fault_step, user=user)
        self._fault_step += 1
        if mods.get("poison_nan"):
            loss = loss * Tensor(float("nan"), requires_grad=False)
        if not np.isfinite(loss.data).all():
            obs.counter("train.nonfinite_skips")
            return False
        if obs.enabled():
            obs.counter("train.steps")
            obs.observe("train.loss", float(loss.data))
        opt.zero_grad()
        loss.backward()
        clip_grad_norm(opt.params, self.config.grad_clip)
        opt.step()
        self.model.item_emb.zero_padding_row()
        return True

    def _payload_val_score(self, payloads: Sequence[UserPayload]) -> float:
        """Mean HR@20 of each payload's last target against the catalog —
        the cheap validation signal used for early stopping."""
        from ..eval.metrics import metrics_from_ranks, ranks_of_targets

        if not payloads:
            return 0.0
        emb = self.model.item_emb.weight.data
        hits = np.empty(len(payloads))
        for i, payload in enumerate(payloads):
            scores = (emb @ self.states[payload.user].interests.T).max(axis=1)
            ranks = ranks_of_targets(scores, [payload.targets[-1]])
            hits[i] = metrics_from_ranks(ranks)[0][0]
        return float(np.mean(hits))

    def _sync_optimizer(self, opt: Adam, state: UserState) -> Adam:
        """Ensure a user's (possibly re-created) SA weights are optimized.

        Membership must be an explicit *identity* test.  The previous
        ``sa_weights not in opt.params`` only worked because ``Tensor``
        happens not to define ``__eq__`` — an elementwise ``__eq__``
        (the numpy/torch convention) would make ``in`` raise or, worse,
        silently match a *different* user's equal-valued weights — and
        it scanned the whole parameter list per call.
        ``Optimizer.has_param`` keeps an ``id()`` set for exactly this
        check (regression-tested in ``tests/test_sparse_adam.py``)."""
        if state.sa_weights is not None and not opt.has_param(state.sa_weights):
            opt.add_param(state.sa_weights)
        return opt

    def _refresh_snapshots(self, span: SpanDataset,
                           interests_hook: Optional[Callable] = None) -> None:
        """Re-extract and store interests from each user's span items.

        With ``config.batched_snapshots`` (opt-in; float-tolerance, not
        bitwise), the whole span refreshes through one batched no-grad
        extraction instead of a Python loop of per-user extractions.

        Wall-clock lands in ``extract_times[current span]`` — the
        "extract" phase of a span that ``train_times`` never covered."""
        start = time.perf_counter()
        with obs.span("snapshot_refresh", span_id=self._current_span,
                      users=len(span.user_ids())), _prof.phase("extract"):
            self._refresh_snapshots_impl(span, interests_hook)
        self.extract_times[self._current_span] = (
            self.extract_times.get(self._current_span, 0.0)
            + (time.perf_counter() - start))

    def _refresh_snapshots_impl(self, span: SpanDataset,
                                interests_hook: Optional[Callable]) -> None:
        if self.config.batched_snapshots:
            from ..models.batched_train import (
                batched_snapshot_interests,
                supports_batched_training,
            )

            if supports_batched_training(self.model):
                jobs = [(self.states[user], span.users[user].all_items)
                        for user in span.user_ids()]
                batched_snapshot_interests(self.model, jobs,
                                           interests_hook=interests_hook)
                return
        for user in span.user_ids():
            items = span.users[user].all_items
            if not items:
                continue
            state = self.states[user]
            # snapshots are detached reads — skip graph construction
            with no_grad():
                interests = self.model.compute_interests(state, items)
                if interests_hook is not None:
                    interests = interests_hook(state, interests)
            state.interests = _capture(interests.data.copy())
