"""`repro.backend` — the compute dtype and the embedding backward's scatters.

Every hot path in the reproduction bottoms out in the hand-rolled
:mod:`repro.autograd` engine and the model kernels in
:mod:`repro.backend.fused` (routing, attention, sampled softmax).  A
backend is a name and the compute dtype they run in:

* ``"default"`` — the paper-exact float64 path;
* ``"fast"`` — opt-in float32 compute, the same kernels.

Selection (names are case-insensitive)::

    repro.backend.set_backend("fast")        # process-wide
    with repro.backend.use_backend("fast"):  # scoped (tests)
        ...
    REPRO_BACKEND=fast python -m repro run … # from the environment

Select a backend *before* building models: the compute dtype is baked
into every Tensor at construction.  Tensor creation re-reads
:data:`compute_dtype` on every call, so scoped switches take effect
immediately for new graphs.

:func:`scatter_add` and :func:`segment_sum` are the two scatters of the
embedding backward.  While a profiler is active (:mod:`repro.obs.prof`)
each call records one ``scatter_add`` backend op with its shape bucket,
FLOP and byte estimates; otherwise a call costs one ``None`` check.

This package must import nothing from :mod:`repro.autograd` (the tensor
engine imports *us* to learn its compute dtype).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter as _perf
from typing import Iterator, Tuple

import numpy as np

from ..obs import prof as _prof

__all__ = [
    "active_backend_name",
    "scatter_add",
    "segment_sum",
    "set_backend",
    "use_backend",
]

#: backend name -> the dtype every Tensor is stored and computed in
_DTYPES = {"default": np.dtype(np.float64), "fast": np.dtype(np.float32)}

_name = "default"
#: the active compute dtype, read by every Tensor creation
compute_dtype: np.dtype = _DTYPES[_name]


def active_backend_name() -> str:
    """Name of the active backend (for traces and reports)."""
    return _name


def set_backend(name: str) -> str:
    """Select a backend process-wide; returns the *previous* name.

    ``name`` is ``"default"`` or ``"fast"``, in any case."""
    global _name, compute_dtype
    key = str(name).strip().lower()
    if key not in _DTYPES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(_DTYPES)}")
    previous = _name
    _name, compute_dtype = key, _DTYPES[key]
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Scoped backend switch: ``with use_backend("fast"): ...``."""
    previous = set_backend(name)
    try:
        yield _name
    finally:
        set_backend(previous)


def scatter_add(out: np.ndarray, indices: np.ndarray,
                updates: np.ndarray) -> None:
    """In-place ``out[indices] += updates`` with repeat accumulation."""
    prof = _prof._PROFILER
    if prof is None:
        np.add.at(out, indices, updates)
        return
    t0 = _perf()
    np.add.at(out, indices, updates)
    prof.record_backend_op(
        "scatter_add", _perf() - t0, _prof.shape_bucket(updates.size),
        float(updates.size), 2 * updates.nbytes + out.nbytes)


def segment_sum(table: np.ndarray, indices: np.ndarray,
                updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows a scatter into ``table`` would touch, and their sums.

    Returns ``(rows, sums)``: ``rows`` are the sorted unique ``indices``
    and ``sums[j]`` holds, in ``table``'s dtype, exactly what
    :func:`scatter_add` would leave in row ``rows[j]`` of a zeroed
    ``table`` — the same ``np.add.at`` accumulation, over the same
    updates in the same order — in a buffer of ``len(rows)`` rows
    instead of the whole table.  Profiled as a ``scatter_add``: it is
    one, into a compact buffer.
    """
    prof = _prof._PROFILER
    if prof is None:
        return _segment_sum(table, indices, updates)
    t0 = _perf()
    rows, sums = _segment_sum(table, indices, updates)
    prof.record_backend_op(
        "scatter_add", _perf() - t0, _prof.shape_bucket(updates.size),
        float(updates.size), 2 * updates.nbytes + sums.nbytes)
    return rows, sums


def _segment_sum(table: np.ndarray, indices: np.ndarray,
                 updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    rows, inverse = np.unique(np.asarray(indices).reshape(-1),
                              return_inverse=True)
    sums = np.zeros((rows.size,) + table.shape[1:], dtype=table.dtype)
    np.add.at(sums, inverse, updates)
    return rows, sums


_env = os.environ.get("REPRO_BACKEND", "").strip()
if _env:
    set_backend(_env)  # raises ValueError on typos: fail loud, not slow
