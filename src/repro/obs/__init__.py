"""`repro.obs` — structured tracing, metrics, and decision telemetry.

Three pillars, all zero-dependency and off by default:

* :mod:`repro.obs.trace` — hierarchical span tracer with a
  crash-tolerant JSONL sink and module-level probe functions whose
  disabled cost is one attribute load and a ``None`` check;
* :mod:`repro.obs.metrics` — Prometheus-style counters / gauges /
  histograms with labels, snapshotted into the trace on close;
* :mod:`repro.obs.log` — ``logging``-backed diagnostics that replace
  bare prints and mirror into the active trace.

:mod:`repro.obs.summary` reads traces back: tolerant parsing,
deterministic fingerprinting, and the aggregation behind
``repro trace summarize``.

:mod:`repro.obs.prof` adds the op-level layer: kernel/backend-op timing,
FLOP and byte estimates, and memory accounting, folded into the trace;
:mod:`repro.obs.flame` turns the span tree plus op samples into
critical paths and flamegraphs (``repro trace flame``).
"""

from .log import ROOT_LOGGER, TraceLogHandler, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_counts,
    is_timing_metric,
)
from .summary import (
    diff_traces,
    prof_rollup,
    read_trace,
    render_diff,
    render_prof_summary,
    render_stream_summary,
    render_summary,
    stream_rollup,
    summarize_trace,
    trace_fingerprint,
)
from .flame import (
    build_span_tree,
    collapsed_stacks,
    critical_path,
    render_critical_path,
    speedscope_profile,
)
from .prof import (
    MemTracker,
    OpProfiler,
    current_profiler,
    op,
    phase,
    profiling,
    shape_bucket,
    start_profiling,
    stop_profiling,
)
from .trace import (
    META_NAME,
    METRICS_NAME,
    TIMING_KEYS,
    TRACE_NAME,
    TraceError,
    Tracer,
    counter,
    current_tracer,
    enabled,
    event,
    gauge,
    observe,
    observe_many,
    span,
    start_tracing,
    stop_tracing,
    sync,
    tracing,
)

__all__ = [
    # logging
    "ROOT_LOGGER",
    "get_logger",
    "configure_logging",
    "TraceLogHandler",
    # metrics
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_counts",
    "is_timing_metric",
    # tracing
    "TRACE_NAME",
    "META_NAME",
    "METRICS_NAME",
    "TIMING_KEYS",
    "TraceError",
    "Tracer",
    "current_tracer",
    "enabled",
    "start_tracing",
    "stop_tracing",
    "tracing",
    "span",
    "event",
    "counter",
    "gauge",
    "observe",
    "observe_many",
    "sync",
    # reading traces back
    "read_trace",
    "trace_fingerprint",
    "summarize_trace",
    "render_summary",
    "render_prof_summary",
    "render_stream_summary",
    "stream_rollup",
    "prof_rollup",
    "diff_traces",
    "render_diff",
    # op-level profiling
    "MemTracker",
    "OpProfiler",
    "current_profiler",
    "op",
    "phase",
    "profiling",
    "shape_bucket",
    "start_profiling",
    "stop_profiling",
    # flamegraphs / critical path
    "build_span_tree",
    "collapsed_stacks",
    "critical_path",
    "render_critical_path",
    "speedscope_profile",
]
