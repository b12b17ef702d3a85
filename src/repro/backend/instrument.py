"""InstrumentedBackend: per-op timing/FLOP/byte wrapper for any backend.

Wraps a registered backend (paper-exact float64 default or the fast
float32 backend) and reports every ``einsum`` and ``scatter_add`` call
(``segment_sum`` counts as a ``scatter_add``) to the active
:class:`repro.obs.prof.OpProfiler`, tagged with a power-of-two shape
bucket, estimated FLOPs, and bytes moved.  Allocation delegates
untouched, so the wrapped backend's numerics are bit-identical to the
bare one — instrumenting changes *observations*, never *results*.

With no active profiler every instrumented op costs one module-attribute
load plus a ``None`` check before delegating (the standard disabled-probe
budget, measured by ``benchmarks/obs_probe.py``).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs import prof as _prof
from .base import Backend

__all__ = ["InstrumentedBackend", "einsum_flops"]


def einsum_flops(spec: str, *operands: np.ndarray) -> float:
    """FLOP estimate for the contraction specs the models actually use.

    The three routing/attention contractions are batched matmuls
    (``2*B*M*K*N``); anything else falls back to a conservative
    lower bound of one multiply-add per output element per operand.
    """
    if len(operands) == 2 and "->" in spec:
        a, b = operands
        if spec == "bnd,bkd->bnk":
            bsz, n, d = a.shape
            return 2.0 * bsz * n * d * b.shape[1]
        if spec == "bnk,bnd->bkd":
            bsz, n, k = a.shape
            return 2.0 * bsz * n * k * b.shape[2]
        if spec == "bnk,bkd->bnd":
            bsz, n, k = a.shape
            return 2.0 * bsz * n * k * b.shape[2]
    total = 0.0
    for operand in operands:
        total += 2.0 * operand.size
    return total


class InstrumentedBackend(Backend):
    """Decorates ``inner`` with per-op profiling; numerics untouched.

    Register explicitly (``set_backend(InstrumentedBackend(active))``)
    or let :func:`repro.obs.prof.start_profiling` install and restore it
    around a profiled region.
    """

    def __init__(self, inner: Backend):
        if isinstance(inner, InstrumentedBackend):
            inner = inner.inner
        self.inner = inner
        self.name = f"instrumented({inner.name})"
        self.compute_dtype = inner.compute_dtype
        self.fused = inner.fused
        self.pool = inner.pool

    def __repr__(self) -> str:
        return f"InstrumentedBackend({self.inner!r})"

    # ------------------------------------------------------------------ #
    # uninstrumented delegation (allocation)
    # ------------------------------------------------------------------ #
    def asarray(self, value) -> np.ndarray:
        return self.inner.asarray(value)

    def scratch(self, shape, pooled: bool = True) -> np.ndarray:
        return self.inner.scratch(shape, pooled=pooled)

    # ------------------------------------------------------------------ #
    # instrumented ops
    # ------------------------------------------------------------------ #
    def einsum(self, spec: str, *operands: np.ndarray) -> np.ndarray:
        prof = _prof._PROFILER
        if prof is None:
            return self.inner.einsum(spec, *operands)
        t0 = _perf()
        out = self.inner.einsum(spec, *operands)
        dur = _perf() - t0
        moved = out.nbytes
        for operand in operands:
            moved += operand.nbytes
        prof.record_backend_op(
            f"einsum[{spec}]", dur, _prof.shape_bucket(out.size),
            einsum_flops(spec, *operands), moved)
        return out

    def scatter_add(self, out: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> None:
        prof = _prof._PROFILER
        if prof is None:
            self.inner.scatter_add(out, indices, updates)
            return
        t0 = _perf()
        self.inner.scatter_add(out, indices, updates)
        dur = _perf() - t0
        prof.record_backend_op(
            "scatter_add", dur, _prof.shape_bucket(updates.size),
            float(updates.size), 2 * updates.nbytes + out.nbytes)

    def segment_sum(self, table: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Recorded as a ``scatter_add``: it is one, into a compact buffer."""
        prof = _prof._PROFILER
        if prof is None:
            return self.inner.segment_sum(table, indices, updates)
        t0 = _perf()
        rows, sums = self.inner.segment_sum(table, indices, updates)
        dur = _perf() - t0
        prof.record_backend_op(
            "scatter_add", dur, _prof.shape_bucket(updates.size),
            float(updates.size), 2 * updates.nbytes + sums.nbytes)
        return rows, sums

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def end_step(self) -> None:
        self.inner.end_step()
        prof = _prof._PROFILER
        if prof is not None:
            prof.on_step(self.inner)

    def pool_stats(self) -> Optional[Dict[str, int]]:
        return self.inner.pool_stats()
