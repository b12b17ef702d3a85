"""InstrumentedBackend: per-op timing/FLOP/byte wrapper for any backend.

Wraps a registered backend (paper-exact float64 default or the fast
float32 backend) and reports every ``gemm`` / ``einsum`` / ``gather`` /
``scatter_add`` / ``softmax`` call (``segment_sum`` counts as a
``scatter_add``) to the active
:class:`repro.obs.prof.OpProfiler`, tagged with a power-of-two shape
bucket, estimated FLOPs, and bytes moved.  Allocation, ufuncs, and
reductions delegate untouched, so the wrapped backend's numerics are
bit-identical to the bare one — instrumenting changes *observations*,
never *results*.

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


def _batch_elems(shape: Tuple[int, ...]) -> int:
    n = 1
    for dim in shape:
        n *= int(dim)
    return n


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
    # uninstrumented delegation (allocation, ufuncs, reductions)
    # ------------------------------------------------------------------ #
    def asarray(self, value) -> np.ndarray:
        return self.inner.asarray(value)

    def allocate(self, shape) -> np.ndarray:
        return self.inner.allocate(shape)

    def zeros(self, shape) -> np.ndarray:
        return self.inner.zeros(shape)

    def scratch(self, shape, pooled: bool = True) -> np.ndarray:
        return self.inner.scratch(shape, pooled=pooled)

    def exp(self, x: np.ndarray) -> np.ndarray:
        return self.inner.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return self.inner.log(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return self.inner.tanh(x)

    def reduce_sum(self, x, axis=None, keepdims: bool = False):
        return self.inner.reduce_sum(x, axis=axis, keepdims=keepdims)

    def reduce_max(self, x, axis=None, keepdims: bool = False):
        return self.inner.reduce_max(x, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # instrumented ops
    # ------------------------------------------------------------------ #
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prof = _prof._PROFILER
        if prof is None:
            return self.inner.gemm(a, b)
        t0 = _perf()
        out = self.inner.gemm(a, b)
        dur = _perf() - t0
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        batch = _batch_elems(a.shape[:-2])
        prof.record_backend_op(
            "gemm", dur, _prof.shape_bucket(m, k, n),
            2.0 * batch * m * k * n,
            a.nbytes + b.nbytes + out.nbytes)
        return out

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

    def gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        prof = _prof._PROFILER
        if prof is None:
            return self.inner.gather(table, indices)
        t0 = _perf()
        out = self.inner.gather(table, indices)
        dur = _perf() - t0
        prof.record_backend_op(
            "gather", dur, _prof.shape_bucket(out.size),
            0.0, 2 * out.nbytes)
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

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        prof = _prof._PROFILER
        if prof is None:
            return self.inner.softmax(x, axis=axis)
        t0 = _perf()
        out = self.inner.softmax(x, axis=axis)
        dur = _perf() - t0
        prof.record_backend_op(
            "softmax", dur, _prof.shape_bucket(x.size),
            5.0 * x.size, x.nbytes + out.nbytes)
        return out

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
