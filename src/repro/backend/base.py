"""The backend interface: the paper-exact float64 default and ``fast``.

A backend holds what the autograd/nn substrate reads from it: the
compute dtype, whether model code dispatches to the fused kernels in
:mod:`repro.backend.fused`, the einsum contractions of the unfused
batched routing, and the scatter-add / segment-sum of the embedding
backward.  Everything else (GEMMs, gathers, ufuncs, reductions) calls
numpy directly.  :class:`NumpyBackend` delegates every op to the
literal numpy call the substrate used before this layer existed, at
``float64`` — so the default path stays byte-for-byte identical to the
paper-exact reproduction.  :class:`FastBackend` runs the same ops in
``float32`` and flips on the fused kernels.

This module must import nothing from :mod:`repro.autograd` (the tensor
engine imports *us* to learn its compute dtype).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..contracts import shape_contract


class Backend:
    """Abstract compute backend.  Subclasses set the three attributes.

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
    """

    name: str = "abstract"
    compute_dtype: np.dtype = np.dtype(np.float64)
    fused: bool = False

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
        zeroed ``table`` — the same ``np.add.at`` accumulation, over the
        same updates in the same order — in a buffer of ``len(rows)``
        rows instead of the whole table.
        """
        rows, inverse = np.unique(np.asarray(indices).reshape(-1),
                                  return_inverse=True)
        sums = np.zeros((rows.size,) + table.shape[1:], dtype=table.dtype)
        np.add.at(sums, inverse, updates)
        return rows, sums


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


class FastBackend(Backend):
    """Opt-in float32 compute plus the fused kernels (tolerance-gated).

    float32 halves memory traffic through every GEMM and keeps metric
    drift within documented tolerances; ``fused`` makes model code run
    routing, attention and the sampled-softmax loss as single kernels
    instead of op-by-op autograd graphs.  See ``docs/PERFORMANCE.md``.
    """

    name = "fast"
    compute_dtype = np.dtype(np.float32)
    fused = True
