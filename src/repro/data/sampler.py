"""Negative sampling.

The sampled-softmax loss (Eq. 6) contrasts the target item against a small
uniformly sampled negative set ``I' ⊂ I \\ {i_a}``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class NegativeSampler:
    """Uniform negative sampler over the item catalog, excluding the target."""

    def __init__(self, num_items: int, num_negatives: int = 10,
                 rng: Optional[np.random.Generator] = None):
        if num_items < 2:
            raise ValueError("need at least 2 items to sample negatives")
        self.num_items = num_items
        self.num_negatives = min(num_negatives, num_items - 1)
        self.rng = rng or np.random.default_rng(0)

    def sample(self, target: int) -> np.ndarray:
        """Sample ``num_negatives`` item ids, none equal to ``target``."""
        negatives = self.rng.integers(0, self.num_items, size=self.num_negatives)
        collisions = negatives == target
        while collisions.any():
            negatives[collisions] = self.rng.integers(
                0, self.num_items, size=int(collisions.sum())
            )
            collisions = negatives == target
        return negatives

    def grow(self, num_items: int) -> None:
        """Widen the catalog (mid-stream item cold start); never shrinks.

        ``num_negatives`` stays at its constructed value — it was only
        clamped when the original catalog was too small to honor it, and
        re-raising it mid-stream would change the loss scale across a
        growth boundary.
        """
        if num_items > self.num_items:
            self.num_items = int(num_items)

    def sample_batch(self, targets) -> np.ndarray:
        """Negatives for many targets in one vectorized draw.

        Returns a ``(len(targets), num_negatives)`` array where row ``i``
        avoids ``targets[i]``; collisions are re-drawn (vectorized) until
        none remain.  Per-row semantics match :meth:`sample`, but one
        flat RNG call replaces ``len(targets)`` sequential calls, so the
        *stream* differs from looping :meth:`sample` — which is why the
        per-user training loop (``users_per_batch=1``, the paper-exact
        configuration) keeps calling :meth:`sample` per target and only
        the micro-batched engine uses this.  Checkpoint/resume stays
        exact in either mode: the sampler's generator state is part of
        :meth:`IncrementalStrategy.random_generators`, and a resumed run
        re-enters the same mode it was saved in.
        """
        targets = np.asarray(targets, dtype=np.int64)
        negatives = self.rng.integers(
            0, self.num_items, size=(targets.shape[0], self.num_negatives)
        )
        collisions = negatives == targets[:, None]
        while collisions.any():
            negatives[collisions] = self.rng.integers(
                0, self.num_items, size=int(collisions.sum())
            )
            collisions = negatives == targets[:, None]
        return negatives

