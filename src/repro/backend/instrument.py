"""InstrumentedBackend: per-op timing/FLOP/byte wrapper for any backend.

Wraps a registered backend (paper-exact float64 default or the fast
float32 backend) and reports every ``scatter_add`` call (``segment_sum``
counts as a ``scatter_add``) to the active
:class:`repro.obs.prof.OpProfiler`, tagged with a power-of-two shape
bucket, estimated FLOPs, and bytes moved.  Every op delegates to the
wrapped backend, so its numerics are bit-identical to the bare one —
instrumenting changes *observations*, never *results*.

With no active profiler every instrumented op costs one module-attribute
load plus a ``None`` check before delegating (the standard disabled-probe
budget, measured by ``benchmarks/obs_probe.py``).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Tuple

import numpy as np

from ..obs import prof as _prof
from .base import Backend

__all__ = ["InstrumentedBackend"]


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

    def __repr__(self) -> str:
        return f"InstrumentedBackend({self.inner!r})"

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
