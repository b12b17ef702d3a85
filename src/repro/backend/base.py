"""The backend interface and the paper-exact NumPy float64 default.

A backend holds what the autograd/nn substrate reads from it: the
compute dtype, scratch buffers for the fused kernels, the einsum
contractions of the unfused batched routing, and the scatter-add /
segment-sum of the embedding backward.  Everything else (GEMMs, gathers,
ufuncs, reductions) calls numpy directly.  The default
:class:`NumpyBackend` delegates every op to the literal numpy call the
substrate used before this layer existed, at ``float64`` — so the
default path stays byte-for-byte identical to the paper-exact
reproduction.  :class:`repro.backend.fast.FastBackend` overrides the
dtype, adds a scratch-buffer pool, and flips on the fused kernels in
:mod:`repro.backend.fused`.

This module must import nothing from :mod:`repro.autograd` (the tensor
engine imports *us* to learn its compute dtype).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..contracts import shape_contract


class Backend:
    """Abstract compute backend.  Subclasses override dtype/ops/policy.

    Attributes
    ----------
    name:
        Registry name (``"default"`` / ``"fast"``).
    compute_dtype:
        The numpy dtype every :class:`repro.autograd.Tensor` is stored
        and computed in.
    fused:
        Whether model code should dispatch to the fused kernels in
        :mod:`repro.backend.fused` instead of building op-by-op graphs.
    pool:
        Scratch :class:`repro.backend.pool.BufferPool`, or ``None`` when
        the backend does not reuse buffers.
    """

    name: str = "abstract"
    compute_dtype: np.dtype = np.dtype(np.float64)
    fused: bool = False
    pool = None

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def asarray(self, value) -> np.ndarray:
        """Convert to an ndarray in this backend's compute dtype."""
        return np.asarray(value, dtype=self.compute_dtype)

    def scratch(self, shape: Tuple[int, ...], pooled: bool = True) -> np.ndarray:
        """Uninitialised scratch buffer for kernel intermediates.

        ``pooled=True`` lets pooling backends lend a reusable buffer that
        is reclaimed at the next optimizer-step boundary; callers must
        pass ``pooled=False`` for buffers that outlive the step (or when
        no step boundary will come, e.g. no-grad evaluation loops).
        """
        return np.empty(shape, dtype=self.compute_dtype)

    # ------------------------------------------------------------------ #
    # contractions and scatters
    # ------------------------------------------------------------------ #
    def einsum(self, spec: str, *operands: np.ndarray) -> np.ndarray:
        """General tensor contraction (``np.einsum`` semantics)."""
        return np.einsum(spec, *operands)

    @shape_contract("(N, D) f, _, (...I, D) f -> _")
    def scatter_add(self, out: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> None:
        """In-place ``out[indices] += updates`` with repeat accumulation."""
        np.add.at(out, indices, updates)

    @shape_contract("(N, D) f, _, (...I, D) f -> (R) i, (R, D) f")
    def segment_sum(self, table: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The rows a scatter into ``table`` would touch, and their sums.

        Returns ``(rows, sums)``: ``rows`` are the sorted unique
        ``indices`` and ``sums[j]`` holds, in ``table``'s dtype, exactly
        what :meth:`scatter_add` would leave in row ``rows[j]`` of a
        zeroed ``table`` — the same accumulation routine, over the same
        updates in the same order — in a buffer of ``len(rows)`` rows
        instead of the whole table.
        """
        rows, inverse = np.unique(np.asarray(indices).reshape(-1),
                                  return_inverse=True)
        sums = np.zeros((rows.size,) + table.shape[1:], dtype=table.dtype)
        self._accumulate(sums, inverse, updates, table.size)
        return rows, sums

    def _accumulate(self, out: np.ndarray, idx: np.ndarray,
                    updates: np.ndarray, table_elems: int) -> None:
        """``out[idx] += updates`` by the routine :meth:`scatter_add`
        uses on a table of ``table_elems`` elements."""
        np.add.at(out, idx, updates)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def end_step(self) -> None:
        """Optimizer-step boundary hook (pool reclaim on fast backends)."""

    def pool_stats(self) -> Optional[Dict[str, int]]:
        """Pool efficiency counters, or ``None`` without a pool."""
        return None


class NumpyBackend(Backend):
    """Paper-exact default: float64, unfused, literal numpy ops.

    Selecting this backend reproduces the pre-backend substrate
    bit-for-bit — every op above *is* the call the engine made before
    the refactor, and ``compute_dtype`` is the float64 the reproduction
    has always trained in.
    """

    name = "default"
    compute_dtype = np.dtype(np.float64)
    fused = False
