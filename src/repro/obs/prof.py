"""Op-level profiler: kernel timing, FLOP/byte estimates, memory accounting.

The tracer (:mod:`repro.obs.trace`) answers *how long did this span
take*; this module answers *where inside the span the time and memory
went*.  Three hook families feed one :class:`OpProfiler`:

* **backend ops** — :class:`repro.backend.instrument.InstrumentedBackend`
  wraps any registered backend and times ``einsum`` / ``scatter_add``
  (``segment_sum`` counts as a ``scatter_add``), recording call counts,
  estimated FLOPs, and bytes moved, aggregated by
  ``(phase, op, shape bucket)``;
* **autograd nodes** — :class:`repro.autograd.Tensor` calls
  :data:`_AUTOGRAD` hooks on every graph-node creation (forward) and
  every backward function, so fused kernels (one node, one backward fn)
  are directly comparable to the unfused op-by-op graphs they replace.
  Forward attribution uses the *sandwich* model: all wall time between
  consecutive node creations belongs to the op that produced the later
  node, so python glue is attributed rather than lost;
* **memory** — :class:`MemTracker` follows live tensor bytes via
  ``weakref.finalize``, keeps a per-span peak watermark, and samples the
  :class:`repro.backend.pool.BufferPool` occupancy (plus optional RSS)
  at optimizer-step boundaries.

Everything is **off by default**.  Each hook site costs one module
attribute load plus a ``None`` check while disabled — the same budget
as the trace probes and the sanitizer, enforced by
``benchmarks/obs_probe.py``.  Hooks only read clocks and counters; they
never touch the numbers, so a profiled run is bit-identical to an
unprofiled one.

When a tracer is active, :func:`stop_profiling` folds the aggregates
into the trace as ``op_stats`` / ``kernel_stats`` / ``op_span`` /
``phase_stats`` / ``mem_sample`` / ``pool_sample`` / ``mem_summary``
records; `repro trace flame` and ``summarize_trace`` consume them.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import trace as _trace

__all__ = [
    "MemTracker",
    "OpProfiler",
    "current_profiler",
    "enabled",
    "op",
    "phase",
    "profiling",
    "read_rss_kb",
    "shape_bucket",
    "start_profiling",
    "stop_profiling",
]

_perf = time.perf_counter

#: the active profiler, or None — every hook site checks exactly this
_PROFILER: Optional["OpProfiler"] = None
#: autograd hook bundle, non-None only while profiling with autograd=True
_AUTOGRAD: Optional["_AutogradHooks"] = None
#: memory tracker, non-None only while profiling with memory=True
_MEM: Optional["MemTracker"] = None

#: cap on timeline samples kept in memory; beyond it the sampling stride
#: doubles and existing samples are thinned, bounding the footprint
_TIMELINE_CAP = 2048


def shape_bucket(*dims: int) -> str:
    """Round each dim up to a power of two: ``"64x128x16"``.

    Bucketing keeps the per-op table small while still separating the
    regimes that matter (tiny per-user GEMMs vs large batched ones).
    """
    return "x".join(str(_pow2(d)) for d in dims)


def _pow2(n: int) -> int:
    n = int(n)
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def read_rss_kb() -> Optional[int]:
    """Resident set size in kB from ``/proc/self/status`` (None if absent)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class MemTracker:
    """Live/peak tensor-byte accounting via ``weakref.finalize``.

    Bytes are *estimates*: a tensor's ``data.nbytes`` is charged at
    construction and released when the tensor is garbage collected, so
    views over shared buffers are double-counted and frees follow GC
    timing.  The per-span watermark stack gives peak-within-span at
    O(1) per allocation (only the innermost entry is updated; peaks
    propagate outward when spans pop).
    """

    __slots__ = ("live", "peak", "tracked", "_stack")

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0
        self.tracked = 0
        self._stack: List[int] = []

    def track(self, tensor: Any) -> None:
        nbytes = int(tensor.data.nbytes)
        self.tracked += 1
        live = self.live + nbytes
        self.live = live
        if live > self.peak:
            self.peak = live
        stack = self._stack
        if stack and live > stack[-1]:
            stack[-1] = live
        weakref.finalize(tensor, self._free, nbytes)

    def _free(self, nbytes: int) -> None:
        self.live -= nbytes

    def push_span(self) -> None:
        self._stack.append(self.live)

    def pop_span(self) -> int:
        """Close the innermost span; returns its peak live bytes."""
        peak = self._stack.pop()
        stack = self._stack
        if stack and peak > stack[-1]:
            stack[-1] = peak
        return peak


class _AutogradHooks:
    """Per-node forward/backward timing, installed while profiling.

    ``mark`` is the timestamp of the previous attribution point; the
    sandwich model charges ``now - mark`` to the op that created the
    current node.  Phase and explicit-op boundaries reset ``mark`` so
    unrelated time (optimizer math, evaluation) is not charged to the
    next forward op.
    """

    __slots__ = ("prof", "mark", "acc", "_bwd_names")

    def __init__(self, prof: "OpProfiler") -> None:
        self.prof = prof
        self.mark = _perf()
        #: backward-fn seconds accumulated inside the current backward()
        self.acc = 0.0
        self._bwd_names: Dict[str, str] = {}

    def on_node(self, code: Any) -> None:
        """Called by ``Tensor._make`` with the caller's code object."""
        now = _perf()
        self.prof._record_kernel("fwd." + code.co_name, now - self.mark)
        self.mark = now

    def on_backward(self, fn: Any, dur: float) -> None:
        """Called with each backward fn and its measured duration."""
        qualname = fn.__qualname__
        label = self._bwd_names.get(qualname)
        if label is None:
            # "Tensor.__add__.<locals>.<lambda>" -> "bwd.__add__";
            # "_dr_kernel.<locals>.grad_e_hat" -> "bwd._dr_kernel"
            label = "bwd." + qualname.split(".<locals>")[0].rsplit(".", 1)[-1]
            self._bwd_names[qualname] = label
        self.prof._record_kernel(label, dur)
        self.acc += dur
        self.mark = _perf()


class _PhaseCtx:
    """Scoped phase marker; accumulates exclusive wall time per phase."""

    __slots__ = ("_prof", "name", "_prev", "_t0", "_child")

    def __init__(self, prof: "OpProfiler", name: str):
        self._prof = prof
        self.name = name
        self._child = 0.0

    def __enter__(self) -> "_PhaseCtx":
        prof = self._prof
        self._prev = prof._phase
        prof._phase = self.name
        prof._phase_stack.append(self)
        hooks = _AUTOGRAD
        if hooks is not None:
            hooks.mark = _perf()
        self._t0 = _perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = _perf() - self._t0
        prof = self._prof
        if prof._phase_stack and prof._phase_stack[-1] is self:
            prof._phase_stack.pop()
        prof._phase = self._prev
        wall = prof.phase_wall
        wall[self.name] = wall.get(self.name, 0.0) + (dur - self._child)
        if prof._phase_stack:
            prof._phase_stack[-1]._child += dur
        hooks = _AUTOGRAD
        if hooks is not None:
            hooks.mark = _perf()
        return False


class _OpCtx:
    """Scoped explicit kernel timing (``with prof.op("optim.step"):``)."""

    __slots__ = ("_prof", "name", "_t0")

    def __init__(self, prof: "OpProfiler", name: str):
        self._prof = prof
        self.name = name

    def __enter__(self) -> "_OpCtx":
        self._t0 = _perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        now = _perf()
        self._prof._record_kernel(self.name, now - self._t0)
        hooks = _AUTOGRAD
        if hooks is not None:
            # the op's time is attributed here; don't charge it again to
            # the next forward node via the sandwich
            hooks.mark = now
        return False


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CTX = _NullCtx()


class OpProfiler:
    """Aggregates kernel/backend-op samples, phase walls, and memory.

    Tables
    ------
    ``kernels``
        ``(phase, op) -> [count, total_s]`` for *named kernels*: sandwich
        forward ops (``fwd.*``), backward fns (``bwd.*``), and explicit
        :func:`op` scopes (``optim.step``, ``eval.score``, …).  Kernels
        never overlap each other, so their sum is the attributed wall
        time used for the attribution fraction.
    ``backend_ops``
        ``(phase, op, bucket) -> [count, total_s, flops, bytes]`` for the
        instrumented backend ops.  These run *inside* kernels (a
        ``bwd.gather_rows`` backward contains its ``scatter_add``), so
        they are a drill-down, not part of the attribution sum.
    ``span_ops``
        ``(span path, op) -> [count, total_s]`` — kernel samples keyed by
        the open span stack, feeding flamegraph leaf frames.
    """

    def __init__(self, autograd: bool = True, memory: bool = True,
                 rss: bool = False):
        self.kernels: Dict[Tuple[str, str], List[float]] = {}
        self.backend_ops: Dict[Tuple[str, str, str], List[float]] = {}
        self.span_ops: Dict[Tuple[Tuple[str, ...], str], List[float]] = {}
        self.phase_wall: Dict[str, float] = {}
        self.pool_timeline: List[Dict[str, Any]] = []
        self.mem_timeline: List[Dict[str, Any]] = []
        self.steps = 0
        self.autograd = bool(autograd)
        self.memory = bool(memory)
        self.rss = bool(rss)
        self.mem: Optional[MemTracker] = MemTracker() if memory else None
        self._phase = ""
        self._phase_stack: List[_PhaseCtx] = []
        self._stride = 1
        self._restore_backend = None
        self._start = _perf()
        self.elapsed_s = 0.0

    # ------------------------------------------------------------------ #
    # recording (hot while profiling, never called while disabled)
    # ------------------------------------------------------------------ #
    def _record_kernel(self, name: str, dur: float) -> None:
        key = (self._phase, name)
        entry = self.kernels.get(key)
        if entry is None:
            self.kernels[key] = [1, dur]
        else:
            entry[0] += 1
            entry[1] += dur
        tracer = _trace._TRACER
        if tracer is not None:
            skey = (tracer.span_path(), name)
            sentry = self.span_ops.get(skey)
            if sentry is None:
                self.span_ops[skey] = [1, dur]
            else:
                sentry[0] += 1
                sentry[1] += dur

    def record_backend_op(self, name: str, dur: float, bucket: str,
                          flops: float, nbytes: int) -> None:
        key = (self._phase, name, bucket)
        entry = self.backend_ops.get(key)
        if entry is None:
            self.backend_ops[key] = [1, dur, flops, nbytes]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += flops
            entry[3] += nbytes

    def on_step(self, backend: Any) -> None:
        """Step-boundary sampling hook (pool occupancy, memory, RSS)."""
        self.steps += 1
        if self.steps % self._stride:
            return
        pool_stats = backend.pool_stats() if backend is not None else None
        if pool_stats is not None:
            self.pool_timeline.append({"step": self.steps, **pool_stats})
        mem = self.mem
        if mem is not None:
            sample: Dict[str, Any] = {
                "step": self.steps, "live_bytes": mem.live,
                "peak_bytes": mem.peak,
            }
            if self.rss:
                rss = read_rss_kb()
                if rss is not None:
                    sample["rss_kb"] = rss
            self.mem_timeline.append(sample)
        if len(self.mem_timeline) > _TIMELINE_CAP or \
                len(self.pool_timeline) > _TIMELINE_CAP:
            self._stride *= 2
            self.mem_timeline = self.mem_timeline[::2]
            self.pool_timeline = self.pool_timeline[::2]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        self.elapsed_s = _perf() - self._start

    def attribution(self) -> Dict[str, Dict[str, float]]:
        """Per-phase attributed fraction: kernel seconds / phase wall.

        Phase wall is *exclusive* (nested phases subtract out), and
        kernels are recorded under the innermost phase, so fractions are
        consistent and an ``overall`` row aggregates every named phase.
        """
        kernel_s: Dict[str, float] = {}
        for (phase_name, _), (_, total) in self.kernels.items():
            kernel_s[phase_name] = kernel_s.get(phase_name, 0.0) + total
        out: Dict[str, Dict[str, float]] = {}
        total_wall = 0.0
        total_kernel = 0.0
        for phase_name, wall in sorted(self.phase_wall.items()):
            attributed = kernel_s.get(phase_name, 0.0)
            out[phase_name] = {
                "wall_s": wall,
                "kernel_s": attributed,
                "frac": attributed / wall if wall > 0 else 0.0,
            }
            total_wall += wall
            total_kernel += attributed
        if total_wall > 0:
            out["overall"] = {
                "wall_s": total_wall,
                "kernel_s": total_kernel,
                "frac": total_kernel / total_wall,
            }
        return out

    def report(self, top: int = 0) -> Dict[str, Any]:
        """Plain-dict summary (op tables sorted by total seconds)."""
        kernels = sorted(
            ({"phase": ph, "op": name, "count": int(c), "total_s": t}
             for (ph, name), (c, t) in self.kernels.items()),
            key=lambda row: -row["total_s"])
        backend_ops = sorted(
            ({"phase": ph, "op": name, "bucket": bucket, "count": int(c),
              "total_s": t, "flops": f, "bytes": int(b),
              "gflops_per_s": (f / t / 1e9) if t > 0 else 0.0}
             for (ph, name, bucket), (c, t, f, b)
             in self.backend_ops.items()),
            key=lambda row: -row["total_s"])
        if top:
            kernels = kernels[:top]
            backend_ops = backend_ops[:top]
        memory: Dict[str, Any] = {}
        if self.mem is not None:
            memory = {
                "live_bytes": self.mem.live,
                "peak_bytes": self.mem.peak,
                "tensors_tracked": self.mem.tracked,
                "samples": len(self.mem_timeline),
            }
            if self.rss:
                memory["rss_kb"] = read_rss_kb()
        return {
            "elapsed_s": self.elapsed_s,
            "steps": self.steps,
            "attribution": self.attribution(),
            "kernels": kernels,
            "backend_ops": backend_ops,
            "memory": memory,
            "pool": self.pool_timeline[-1] if self.pool_timeline else None,
        }

    # ------------------------------------------------------------------ #
    # trace folding
    # ------------------------------------------------------------------ #
    def emit_to_trace(self, tracer: "_trace.Tracer") -> None:
        """Fold the aggregates into the trace JSONL.

        Counts, FLOPs, bytes, and op/phase names are pure functions of
        the run's data and stay in the fingerprint; every wall-clock
        field uses reserved timing keys, and memory/pool samples are
        reduced to their ``kind`` (GC timing is not determinism we can
        promise).
        """
        for (ph, name, bucket), (c, t, f, b) in sorted(
                self.backend_ops.items()):
            tracer.emit({
                "kind": "op_stats", "phase": ph, "op": name,
                "bucket": bucket, "count": int(c), "flops": f,
                "bytes": int(b), "total_s": t,
            })
        for (ph, name), (c, t) in sorted(self.kernels.items()):
            tracer.emit({
                "kind": "kernel_stats", "phase": ph, "op": name,
                "count": int(c), "total_s": t,
            })
        for (path, name), (c, t) in sorted(self.span_ops.items()):
            tracer.emit({
                "kind": "op_span", "path": list(path), "op": name,
                "count": int(c), "total_s": t,
            })
        for ph, wall in sorted(self.phase_wall.items()):
            tracer.emit({"kind": "phase_stats", "phase": ph,
                         "wall_s": wall})
        for sample in self.mem_timeline:
            tracer.emit({"kind": "mem_sample", **sample})
        for sample in self.pool_timeline:
            tracer.emit({"kind": "pool_sample", **sample})
        if self.mem is not None:
            summary: Dict[str, Any] = {
                "kind": "mem_summary", "live_bytes": self.mem.live,
                "peak_bytes": self.mem.peak,
                "tensors_tracked": self.mem.tracked,
            }
            if self.rss:
                rss = read_rss_kb()
                if rss is not None:
                    summary["rss_kb"] = rss
            tracer.emit(summary)


# ---------------------------------------------------------------------- #
# module-level probe API (mirrors repro.obs.trace)
# ---------------------------------------------------------------------- #
def current_profiler() -> Optional[OpProfiler]:
    """The active profiler, or None when profiling is off."""
    return _PROFILER


def enabled() -> bool:
    """Whether a profiler is currently active."""
    return _PROFILER is not None


def op(name: str):
    """Time a named kernel scope; shared no-op context when off."""
    prof = _PROFILER
    if prof is None:
        return _NULL_CTX
    return _OpCtx(prof, name)


def phase(name: str):
    """Mark a profiling phase (pretrain/train/extract/eval/score/learn);
    shared no-op context when off."""
    prof = _PROFILER
    if prof is None:
        return _NULL_CTX
    return _PhaseCtx(prof, name)


def start_profiling(autograd: bool = True, memory: bool = True,
                    rss: bool = False,
                    instrument_backend: bool = True) -> OpProfiler:
    """Activate op-level profiling (one active profiler at a time).

    ``instrument_backend=True`` swaps the active backend for an
    :class:`~repro.backend.instrument.InstrumentedBackend` wrapper and
    restores the original at :func:`stop_profiling`.
    """
    global _PROFILER, _AUTOGRAD, _MEM
    if _PROFILER is not None:
        raise RuntimeError("profiling is already active; stop it first")
    prof = OpProfiler(autograd=autograd, memory=memory, rss=rss)
    if instrument_backend:
        # deferred: repro.backend imports repro.obs at package init
        from .. import backend as _backend
        from ..backend.instrument import InstrumentedBackend

        if not isinstance(_backend.active, InstrumentedBackend):
            prof._restore_backend = _backend.set_backend(
                InstrumentedBackend(_backend.active))
    _PROFILER = prof
    if autograd:
        _AUTOGRAD = _AutogradHooks(prof)
    if memory:
        _MEM = prof.mem
    return prof


def stop_profiling(emit: bool = True) -> Optional[OpProfiler]:
    """Deactivate profiling; fold results into the active trace.

    Returns the (finished) profiler, or None if profiling was off.
    """
    global _PROFILER, _AUTOGRAD, _MEM
    prof = _PROFILER
    _PROFILER = None
    _AUTOGRAD = None
    _MEM = None
    if prof is None:
        return None
    if prof._restore_backend is not None:
        from .. import backend as _backend

        _backend.set_backend(prof._restore_backend)
        prof._restore_backend = None
    prof.finish()
    if emit:
        tracer = _trace._TRACER
        if tracer is not None:
            prof.emit_to_trace(tracer)
    return prof


@contextlib.contextmanager
def profiling(autograd: bool = True, memory: bool = True, rss: bool = False,
              instrument_backend: bool = True) -> Iterator[OpProfiler]:
    """``with profiling() as prof:`` — scoped activation."""
    prof = start_profiling(autograd=autograd, memory=memory, rss=rss,
                           instrument_backend=instrument_backend)
    try:
        yield prof
    finally:
        stop_profiling()
