"""The backend interface: the paper-exact float64 default and ``fast``.

A backend is a name, a compute dtype and the two scatter ops of the
embedding backward (``scatter_add`` and ``segment_sum``).  Everything
else — the kernels in :mod:`repro.backend.fused`, GEMMs, gathers,
ufuncs, reductions — calls numpy directly, so both backends run the
same code: :class:`NumpyBackend` in ``float64`` (the paper-exact
reproduction), :class:`FastBackend` in ``float32``.

This module must import nothing from :mod:`repro.autograd` (the tensor
engine imports *us* to learn its compute dtype).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Backend:
    """Abstract compute backend.  Subclasses set the two attributes.

    Attributes
    ----------
    name:
        Registry name (``"default"`` / ``"fast"``).
    compute_dtype:
        The numpy dtype every :class:`repro.autograd.Tensor` is stored
        and computed in.
    """

    name: str = "abstract"
    compute_dtype: np.dtype = np.dtype(np.float64)

    def scatter_add(self, out: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> None:
        """In-place ``out[indices] += updates`` with repeat accumulation."""
        np.add.at(out, indices, updates)

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
    """Paper-exact default: float64 compute."""

    name = "default"
    compute_dtype = np.dtype(np.float64)


class FastBackend(Backend):
    """Opt-in float32 compute (tolerance-gated).

    float32 halves memory traffic through every GEMM and keeps metric
    drift within documented tolerances.  See ``docs/PERFORMANCE.md``.
    """

    name = "fast"
    compute_dtype = np.dtype(np.float32)
