"""Base multi-interest sequential recommendation (MSR) model machinery.

An MSR model maps a user's item sequence to ``K`` interest vectors
(paper Eq. 1).  In the incremental setting each user carries persistent
state across time spans: the stored interest matrix (and for the
self-attention model, per-user attention weights).  :class:`UserState`
holds that state; :class:`MSRModel` defines the shared API that the
incremental strategies (:mod:`repro.incremental`) operate against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import backend as _backend
from ..autograd import Tensor, no_grad
from ..nn import Embedding, Module, Parameter
from .aggregator import score_items
from .sampled_softmax import batch_sampled_softmax_loss


@dataclass
class UserState:
    """Per-user persistent state carried across time spans.

    Attributes
    ----------
    interests:
        (K, d) current stored interest vectors (detached snapshot; the
        routing warm start and the retrieval index).
    prev_interests:
        (K_prev, d) snapshot at the end of the previous span — the EIR
        "teacher", the NID reference, and the PIT projection basis.
    created_span:
        (K,) span index at which each interest vector was created
        (0 = pretraining); feeds the Fig. 7 case studies.
    n_existing:
        Number of interests that already existed when the current span
        began (``K_u^{t-1}`` in the paper).  Rows ``[0, n_existing)`` of
        ``interests`` are "existing", the rest were created this span.
    sa_weights:
        For the self-attention model only: the user's (d_a, K) attention
        weight matrix ``W_u`` (a trainable Parameter).
    expanded_this_span:
        Guard so NID triggers interest creation at most once per span.
    """

    user: int
    interests: np.ndarray
    prev_interests: np.ndarray
    created_span: np.ndarray
    n_existing: int
    sa_weights: Optional[Parameter] = None
    expanded_this_span: bool = False

    @property
    def num_interests(self) -> int:
        return self.interests.shape[0]

    def begin_span(self) -> None:
        """Mark a span boundary: current interests become the teacher."""
        self.prev_interests = self.interests.copy()
        self.n_existing = self.interests.shape[0]
        self.expanded_this_span = False


class MSRModel(Module):
    """Common base: embedding table + per-user interest extraction.

    Subclasses implement :meth:`compute_interests` (Eq. 4 for DR models,
    Eq. 9 for SA) and may override user-state hooks for model-specific
    per-user parameters.
    """

    #: subclass marker: "dr" (dynamic routing) or "sa" (self-attention)
    family = "dr"

    def __init__(self, num_items: int, dim: int = 32, num_interests: int = 4,
                 seed: int = 0):
        super().__init__()
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.num_items = num_items
        self.dim = dim
        self.K0 = num_interests
        self.rng = np.random.default_rng(seed)
        self.item_emb = Embedding(num_items, dim, self.rng)

    # ------------------------------------------------------------------ #
    # user state management
    # ------------------------------------------------------------------ #
    def init_user_state(self, user: int) -> UserState:
        """Fresh user state with ``K0`` N(0, I/d) interest vectors."""
        interests = self._random_interests(self.K0)
        return UserState(
            user=user,
            interests=interests,
            prev_interests=interests.copy(),
            created_span=np.zeros(self.K0, dtype=np.int64),
            n_existing=self.K0,
            sa_weights=self._init_sa_weights(self.K0),
        )

    def init_all_users(self, user_ids: Sequence[int]) -> Dict[int, UserState]:
        return {u: self.init_user_state(u) for u in user_ids}

    def expand_user(self, state: UserState, delta_k: int, span: int) -> None:
        """Append ``delta_k`` freshly initialized interest slots (NID)."""
        if delta_k <= 0:
            return
        new = self._random_interests(delta_k)
        state.interests = np.concatenate([state.interests, new], axis=0)
        state.created_span = np.concatenate(
            [state.created_span, np.full(delta_k, span, dtype=np.int64)]
        )
        self._expand_sa_weights(state, delta_k)

    def trim_user(self, state: UserState, keep: np.ndarray) -> None:
        """Keep only interest rows where ``keep`` is True (PIT)."""
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return
        if not keep[: state.n_existing].all():
            raise ValueError("trimming may only remove interests created this span")
        state.interests = state.interests[keep]
        state.created_span = state.created_span[keep]
        self._trim_sa_weights(state, keep)

    def _random_interests(self, k: int) -> np.ndarray:
        """Scaled N(0, I) init (paper Algorithm 1 line 8), std 1/sqrt(d)."""
        draw = self.rng.normal(0.0, 1.0 / np.sqrt(self.dim), size=(k, self.dim))
        return np.asarray(draw, dtype=_backend.compute_dtype)

    # SA-specific hooks (no-ops for DR models) -------------------------- #
    def _init_sa_weights(self, k: int) -> Optional[Parameter]:
        return None

    def _expand_sa_weights(self, state: UserState, delta_k: int) -> None:
        return None

    def _trim_sa_weights(self, state: UserState, keep: np.ndarray) -> None:
        return None

    def user_parameters(self, states: Sequence[UserState]) -> List[Parameter]:
        """Per-user trainable parameters (empty for DR models)."""
        return [s.sa_weights for s in states if s.sa_weights is not None]

    def grow_items(self, new_num_items: int,
                   rng: Optional[np.random.Generator] = None) -> int:
        """Grow the item-embedding table to ``new_num_items`` rows.

        Mid-stream item cold start: a streaming event may reference an
        item id beyond the catalog the model was built with.  Pass
        ``rng`` (usually ``self.rng``) to draw the new rows exactly as at
        construction time — a resumed run replaying the same growth from
        the same restored generator state then reproduces the same table.
        ``rng=None`` appends zero rows (the checkpoint-restore path, where
        the real values are loaded immediately afterwards).  Returns the
        number of rows added; never shrinks.
        """
        added = int(new_num_items) - self.num_items
        if added <= 0:
            return 0
        self.item_emb.grow(added, rng)
        self.num_items = int(new_num_items)
        return added

    # ------------------------------------------------------------------ #
    # modelling
    # ------------------------------------------------------------------ #
    def compute_interests(self, state: UserState, item_seq: Sequence[int]) -> Tensor:
        """Extract the (K, d) interest matrix from an item sequence.

        Differentiable w.r.t. the model parameters (and, for SA, the
        user's attention weights).
        """
        raise NotImplementedError

    def embed_items(self, item_ids: Sequence[int]) -> Tensor:
        return self.item_emb(np.asarray(item_ids, dtype=np.int64))

    def loss_targets(self, interests: Tensor, targets: Sequence[int],
                     negatives: np.ndarray) -> Tensor:
        """Eq. 6 averaged over all targets of one user.

        ``negatives`` is (num_targets, num_neg) item ids.
        """
        target_embs = self.embed_items(targets)
        neg_embs = self.embed_items(np.asarray(negatives).reshape(-1)).reshape(
            len(targets), -1, self.dim
        )
        return batch_sampled_softmax_loss(interests, target_embs, neg_embs)

    def score_all_items(self, state: UserState) -> np.ndarray:
        """Retrieval scores of every catalog item for one user (no grad)."""
        return score_items(state.interests, self.item_emb.weight.data)

    def snapshot_interests(self, state: UserState, item_seq: Sequence[int],
                           interests_hook=None) -> None:
        """Recompute and store (detached) interests from ``item_seq``.

        ``interests_hook(state, interests) -> interests`` (IMSR's PIT) is
        applied before storing, as in ``batched_snapshot_interests``.
        """
        if len(item_seq) == 0:
            return
        with no_grad():
            interests = self.compute_interests(state, item_seq)
            if interests_hook is not None:
                interests = interests_hook(state, interests)
        state.interests = interests.data.copy()
