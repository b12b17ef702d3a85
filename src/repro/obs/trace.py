"""Hierarchical span tracer with a crash-tolerant JSONL sink.

One :class:`Tracer` serves a whole run: spans nest (run → train_span →
phase → epoch / user-batch), decision events attach to the innermost
open span, and a :class:`repro.obs.metrics.MetricsRegistry` accumulates
counters/gauges/histograms that are flushed as the final trace record.

Design constraints (see ``docs/OBSERVABILITY.md``):

* **off by default, near-free when off** — the module-level probe
  functions (:func:`span`, :func:`event`, :func:`counter`, …) are the
  only thing production code calls; with no active tracer each is one
  attribute load and a ``None`` check;
* **deterministic payloads** — span ids are sequential, field content is
  derived from run data only, and every wall-clock quantity lives in the
  reserved keys ``wall`` / ``dur_s`` which the trace fingerprint strips
  (:func:`repro.obs.summary.trace_fingerprint`);
* **crash/resume safety** — events are appended line-by-line and flushed,
  so a kill can tear at most the final line; reopening with
  ``resume=True`` truncates any torn tail before appending, and the
  sidecar files (``trace-meta.json``, ``metrics.json``) are committed
  through :func:`repro.persistence.atomic_write_bytes`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from .log import attach_trace_handler, detach_trace_handler
from .metrics import MetricsRegistry, is_timing_metric

PathLike = Union[str, Path]

TRACE_NAME = "trace.jsonl"
META_NAME = "trace-meta.json"
METRICS_NAME = "metrics.json"

#: record keys carrying wall-clock (or GC-dependent) measurements;
#: excluded from the deterministic trace fingerprint.  ``total_s`` /
#: ``wall_s`` come from profiler op records, ``mem`` is the per-span
#: memory enrichment added when profiling.
TIMING_KEYS = ("wall", "dur_s", "total_s", "wall_s", "mem")

#: profiler record kinds whose *content* is allowed to vary between
#: identical runs (live bytes follow GC timing); the fingerprint
#: keeps only their ``kind`` so record order/count stays checked
_NONDETERMINISTIC_KINDS = frozenset({"mem_sample", "mem_summary"})

_TRACE_VERSION = 1

__all__ = [
    "TRACE_NAME", "META_NAME", "METRICS_NAME", "TIMING_KEYS",
    "TraceError", "Tracer",
    "current_tracer", "enabled", "start_tracing", "stop_tracing", "tracing",
    "span", "event", "counter", "gauge", "observe", "observe_many", "sync",
]


class TraceError(ValueError):
    """The trace sink cannot be opened, written, or parsed."""


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and containers) to plain JSON types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


def strip_timing(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with the reserved timing keys removed."""
    return {k: v for k, v in record.items() if k not in TIMING_KEYS}


def fingerprint_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic projection of a record that gets fingerprinted.

    Reserved timing keys are stripped, and inside a ``metrics`` record
    every timing metric (``*_seconds`` / ``*_ms``) is dropped — timing
    content is the one thing allowed to differ between identical runs.
    """
    kind = record.get("kind")
    if kind in _NONDETERMINISTIC_KINDS:
        return {"kind": kind}
    record = strip_timing(record)
    if record.get("kind") == "metrics":
        record = dict(record)
        record["metrics"] = {
            name: state
            for name, state in record.get("metrics", {}).items()
            if not is_timing_metric(name.split("{", 1)[0])
        }
    return record


class _Span:
    """Context manager emitted by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "fields", "id", "_start", "_mem")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.fields = fields
        self.id: Optional[int] = None
        self._start = 0.0
        self._mem = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.id = tracer._next_id()
        record = {
            "kind": "span_start",
            "id": self.id,
            "parent": tracer._stack[-1] if tracer._stack else None,
            "name": self.name,
            "wall": time.time(),
        }
        if self.fields:
            record["fields"] = self.fields
        tracer._stack.append(self.id)
        tracer._names.append(self.name)
        tracer._path_cache = None
        mem = _mem_tracker()
        if mem is not None:
            mem.push_span()
            self._mem = mem
        tracer._emit(record)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.id:
            tracer._stack.pop()
            tracer._names.pop()
            tracer._path_cache = None
        record = {
            "kind": "span_end",
            "id": self.id,
            "name": self.name,
            "dur_s": duration,
        }
        mem = self._mem
        if mem is not None:
            # pop pairs with our push even if profiling stopped mid-span
            record["mem"] = {"peak_bytes": mem.pop_span(),
                             "live_bytes": mem.live}
            self._mem = None
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tracer._emit(record)
        return False


class _NullSpan:
    """Shared no-op span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def _mem_tracker():
    """The active :class:`repro.obs.prof.MemTracker`, if profiling with
    memory accounting (looked up lazily — prof imports this module)."""
    prof = sys.modules.get("repro.obs.prof")
    return None if prof is None else prof._MEM


class Tracer:
    """Owns one trace directory: the JSONL sink, span stack, and metrics.

    ``resume=True`` appends to an existing ``trace.jsonl`` after
    truncating any torn final line (the only damage a crash can inflict
    on an append-only line sink); otherwise an existing trace file is
    replaced.
    """

    def __init__(self, directory: PathLike, run_id: str = "run",
                 resume: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / TRACE_NAME
        self.run_id = run_id
        self.metrics = MetricsRegistry()
        self.events_written = 0
        self._id = 0
        self._stack: List[int] = []
        self._names: List[str] = []
        self._path_cache: Optional[tuple] = None
        self._hasher = hashlib.sha256()
        self._closed = False
        if self.path.exists():
            if resume:
                self._recover_tail()
            else:
                self.path.unlink()
        self._fh = open(self.path, "ab")
        self._emit({
            "kind": "trace_open",
            "version": _TRACE_VERSION,
            "run_id": run_id,
            "resumed": bool(resume),
            "wall": time.time(),
        })

    # ------------------------------------------------------------------ #
    # sink
    # ------------------------------------------------------------------ #
    def _recover_tail(self) -> None:
        """Truncate a torn (newline-less) final line left by a crash."""
        data = self.path.read_bytes()
        cut = data.rfind(b"\n") + 1
        if cut != len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(cut)

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise TraceError("tracer is closed")
        record = _jsonable(record)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()
        self._hasher.update(
            json.dumps(fingerprint_view(record),
                       sort_keys=True).encode("utf-8"))
        self._hasher.update(b"\n")
        self.events_written += 1

    def sync(self) -> None:
        """fsync the sink — called at span boundaries by the runner so
        the trace is durable alongside the checkpoint journal."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def fingerprint(self) -> str:
        """SHA-256 over every emitted record with timing keys stripped.

        Identical run → identical fingerprint, regardless of how fast
        the hardware ran it.
        """
        return self._hasher.hexdigest()

    # ------------------------------------------------------------------ #
    # recording API
    # ------------------------------------------------------------------ #
    def span(self, name: str, **fields: Any) -> _Span:
        """Open a nested span; use as a context manager."""
        return _Span(self, name, fields)

    def current_span_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def span_path(self) -> tuple:
        """Names of the open spans, outermost first (cached tuple)."""
        path = self._path_cache
        if path is None:
            path = self._path_cache = tuple(self._names)
        return path

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one pre-built record (profiler aggregates use this).

        ``record`` must carry a ``kind``; wall-clock content must live in
        the reserved :data:`TIMING_KEYS` so the fingerprint stays
        deterministic.
        """
        if "kind" not in record:
            raise TraceError("trace records require a 'kind'")
        self._emit(record)

    def event(self, name: str, **fields: Any) -> None:
        """Emit one decision event attached to the innermost open span."""
        record: Dict[str, Any] = {"kind": "event", "name": name}
        parent = self.current_span_id()
        if parent is not None:
            record["span"] = parent
        if fields:
            record["fields"] = fields
        self._emit(record)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush metrics, write the sidecars atomically, close the sink."""
        if self._closed:
            return
        snapshot = self.metrics.snapshot()
        if snapshot:
            self._emit({"kind": "metrics", "metrics": snapshot})
        fingerprint = self.fingerprint()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True
        # deferred import: persistence pulls in the strategy layer, which
        # (transitively) imports this module
        from ..persistence import atomic_write_bytes

        meta = {
            "version": _TRACE_VERSION,
            "run_id": self.run_id,
            "events": self.events_written,
            "metric_updates": self.metrics.updates,
            "fingerprint": fingerprint,
            "trace_bytes": self.path.stat().st_size,
        }
        atomic_write_bytes(
            json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),
            self.directory / META_NAME, kind="trace-meta")
        atomic_write_bytes(
            json.dumps(snapshot, indent=2, sort_keys=True).encode("utf-8"),
            self.directory / METRICS_NAME, kind="trace-metrics")


# ---------------------------------------------------------------------- #
# module-level probe API (the only thing production code calls)
# ---------------------------------------------------------------------- #
_TRACER: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or None when telemetry is off."""
    return _TRACER


def enabled() -> bool:
    """Whether a tracer is currently active."""
    return _TRACER is not None


def start_tracing(directory: PathLike, run_id: str = "run",
                  resume: bool = False) -> Tracer:
    """Activate tracing into ``directory`` (one active tracer at a time)."""
    global _TRACER
    if _TRACER is not None:
        raise TraceError(
            f"tracing is already active (directory {_TRACER.directory}); "
            f"stop it before starting another trace")
    _TRACER = Tracer(directory, run_id=run_id, resume=resume)
    attach_trace_handler()
    return _TRACER


def stop_tracing() -> Optional[Tracer]:
    """Close and deactivate the current tracer (no-op when off)."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    detach_trace_handler()
    if tracer is not None:
        tracer.close()
    return tracer


@contextlib.contextmanager
def tracing(directory: PathLike, run_id: str = "run",
            resume: bool = False) -> Iterator[Tracer]:
    """``with tracing(dir):`` — scoped activation for tests and scripts."""
    tracer = start_tracing(directory, run_id=run_id, resume=resume)
    try:
        yield tracer
    finally:
        stop_tracing()


def span(name: str, **fields: Any):
    """Open a span on the active tracer; shared no-op context when off."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **fields)


def event(name: str, **fields: Any) -> None:
    """Emit a decision event (dropped when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **fields)


def sync() -> None:
    """fsync the active trace sink (no-op when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.sync()


def counter(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment a counter metric (dropped when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.counter(name, **labels).inc(amount)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge metric (dropped when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, edges=None, **labels: Any) -> None:
    """Record one histogram observation (dropped when tracing is off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.histogram(name, edges=edges, **labels).observe(value)


def observe_many(name: str, values, edges=None, **labels: Any) -> None:
    """Record a batch of histogram observations (dropped when off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.histogram(name, edges=edges,
                                 **labels).observe_many(values)
