"""Metrics registry: counters, gauges, and histograms with labels.

The registry is deliberately tiny and dependency-free — a dict of metric
objects keyed by ``(name, sorted labels)`` — but follows the shape of
production metric systems (Prometheus-style types and label sets) so the
numbers it produces are directly exportable.

Determinism contract
--------------------
Metric *content* must be a pure function of the run's data so a trace
written with telemetry enabled is reproducible.  Wall-clock measurements
are the one exception; by convention every timing metric's name ends in
``_seconds`` (or ``_ms``), and :func:`is_timing_metric` lets the trace
fingerprint exclude exactly those (see
:func:`repro.obs.summary.trace_fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


__all__ = [
    "DEFAULT_BUCKETS",
    "LATENCY_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_counts",
    "is_timing_metric",
    "merge_snapshots",
    "metric_key",
    "quantile_from_snapshot",
]

#: default histogram bucket upper edges (geometric; overflow bucket is
#: implicit).  Chosen to cover loss values, norms, and row counts alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1000.0,
)

#: bucket edges for latency histograms (seconds).  DEFAULT_BUCKETS is
#: far too coarse below a millisecond, where per-event stream scoring
#: and incremental updates actually live.
LATENCY_EDGES: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_TIMING_SUFFIXES = ("_seconds", "_ms")

LabelItems = Tuple[Tuple[str, str], ...]


def is_timing_metric(name: str) -> bool:
    """Whether a metric name denotes a wall-clock measurement.

    Timing metrics are carried in the trace like everything else but are
    excluded from the deterministic trace fingerprint.
    """
    return name.endswith(_TIMING_SUFFIXES)


def metric_key(name: str, labels: Dict[str, object]) -> Tuple[str, LabelItems]:
    """Canonical registry key: name plus sorted, stringified labels."""
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram bucketing: per-bucket counts for ``values``.

    Bucket ``i < E`` counts values ``v`` with ``edges[i-1] < v <=
    edges[i]`` (first bucket: ``v <= edges[0]``); the final bucket
    (``B = E + 1`` total) counts the overflow ``v > edges[-1]``.
    ``edges`` must be strictly increasing.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size == 0:
        raise ValueError("edges must be a non-empty 1-D array")
    if edges.size > 1 and not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly increasing")
    idx = np.searchsorted(edges, np.asarray(values, dtype=np.float64),
                          side="left")
    return np.bincount(idx, minlength=edges.size + 1).astype(np.int64)


def quantile_from_snapshot(snapshot: Dict[str, object],
                           q: float) -> Optional[float]:
    """Estimated q-quantile from a histogram snapshot (p50/p95/p99).

    Linear interpolation inside the bucket holding the target rank,
    clamped to the observed min/max so estimates never leave the data's
    range.  Returns ``None`` for empty histograms.  Raw observations are
    not retained, so this is a bucket-resolution estimate — exact when
    the quantile lands on a bucket edge, otherwise within one bucket.
    """
    count = int(snapshot.get("count") or 0)
    if count <= 0 or snapshot.get("type") not in (None, "histogram"):
        return None
    counts = list(snapshot.get("counts") or ())
    edges = list(snapshot.get("edges") or ())
    observed_min = snapshot.get("min")
    observed_max = snapshot.get("max")
    if not counts:
        return observed_max if q >= 0.5 else observed_min
    rank = min(max(float(q), 0.0), 1.0) * count
    cumulative = 0
    for i, n in enumerate(counts):
        n = int(n)
        if n == 0:
            continue
        if cumulative + n >= rank:
            lo = edges[i - 1] if i > 0 else observed_min
            hi = edges[i] if i < len(edges) else observed_max
            if lo is None:
                lo = hi if hi is not None else 0.0
            if hi is None:
                hi = lo
            if observed_min is not None:
                lo = max(float(lo), float(observed_min))
            if observed_max is not None:
                hi = min(float(hi), float(observed_max))
            if hi < lo:
                return float(lo)
            frac = (rank - cumulative) / n
            return float(lo) + frac * (float(hi) - float(lo))
        cumulative += n
    return float(observed_max) if observed_max is not None else None


def merge_snapshots(base: Dict[str, Dict],
                    extra: Dict[str, Dict]) -> Dict[str, Dict]:
    """Merge two metrics snapshots (``{rendered name: state}``).

    Resumed runs write one ``metrics`` record per trace segment; this
    folds them into run totals: counters sum, gauges keep the latest
    non-null value, histograms with identical edges merge
    counts/count/sum/min/max.  A histogram whose edges changed between
    segments cannot be merged — the later segment wins.
    """
    out: Dict[str, Dict] = {name: dict(state) for name, state in base.items()}
    for name, state in extra.items():
        previous = out.get(name)
        kind = state.get("type")
        if previous is None or previous.get("type") != kind:
            out[name] = dict(state)
            continue
        if kind == "counter":
            previous["value"] = float(previous.get("value") or 0.0) + \
                float(state.get("value") or 0.0)
        elif kind == "gauge":
            if state.get("value") is not None:
                previous["value"] = state["value"]
        elif kind == "histogram":
            if previous.get("edges") != state.get("edges"):
                out[name] = dict(state)
                continue
            previous["counts"] = [
                int(a) + int(b)
                for a, b in zip(previous.get("counts", ()),
                                state.get("counts", ()))]
            previous["count"] = int(previous.get("count") or 0) + \
                int(state.get("count") or 0)
            previous["sum"] = float(previous.get("sum") or 0.0) + \
                float(state.get("sum") or 0.0)
            for key, pick in (("min", min), ("max", max)):
                a, b = previous.get(key), state.get(key)
                previous[key] = pick(x for x in (a, b) if x is not None) \
                    if (a is not None or b is not None) else None
        else:
            out[name] = dict(state)
    return out


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    labels: LabelItems = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


@dataclass
class Gauge:
    """Last-written value (sizes, levels, configuration)."""

    name: str
    labels: LabelItems = ()
    value: Optional[float] = None

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}


@dataclass
class Histogram:
    """Bucketed distribution with running count/sum/min/max.

    Raw observations are *not* retained — the memory footprint is fixed
    regardless of how many values stream through.
    """

    name: str
    labels: LabelItems = ()
    edges: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    kind = "histogram"

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        idx = int(np.searchsorted(np.asarray(self.edges), value, side="left"))
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            return
        per_bucket = bucket_counts(arr, np.asarray(self.edges,
                                                   dtype=np.float64))
        for i, n in enumerate(per_bucket):
            self.counts[i] += int(n)
        self.count += int(arr.size)
        self.total += float(arr.sum())
        lo, hi = float(arr.min()), float(arr.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (see :func:`quantile_from_snapshot`)."""
        return quantile_from_snapshot(self.snapshot(), q)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's state in (resumed-run aggregation).

        Requires identical bucket edges — merged counts are meaningless
        otherwise.
        """
        if tuple(other.edges) != tuple(self.edges):
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}")
        for i, n in enumerate(other.counts):
            self.counts[i] += int(n)
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                              other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Create-or-get store for every metric a run produces."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        #: total metric updates routed through this registry (used by the
        #: overhead probe to count instrument firings)
        self.updates = 0

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        self.updates += 1
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        self.updates += 1
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, edges: Optional[Tuple[float, ...]] = None,
                  **labels) -> Histogram:
        self.updates += 1
        if edges is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, edges=tuple(edges))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, include_timings: bool = True) -> Dict[str, Dict]:
        """Deterministically ordered ``{rendered name: state}`` mapping.

        ``include_timings=False`` drops every metric whose name
        :func:`is_timing_metric` — the view hashed into the trace
        fingerprint.
        """
        out: Dict[str, Dict] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            if not include_timings and is_timing_metric(name):
                continue
            rendered = name
            if labels:
                rendered += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            out[rendered] = metric.snapshot()
        return out
