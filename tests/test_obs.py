"""Unit tests for repro.obs: metrics, tracer, sink recovery, summaries."""

import json
import logging

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    META_NAME,
    METRICS_NAME,
    Histogram,
    MetricsRegistry,
    TraceError,
    bucket_counts,
    configure_logging,
    enabled,
    get_logger,
    is_timing_metric,
    read_trace,
    render_summary,
    start_tracing,
    summarize_trace,
    trace_fingerprint,
    tracing,
)
from repro.obs import trace as obs
from repro.obs.trace import fingerprint_view, strip_timing


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
class TestBucketCounts:
    def test_matches_definition(self):
        edges = np.array([1.0, 2.0, 5.0])
        values = np.array([0.5, 1.0, 1.5, 2.0, 4.0, 5.0, 7.0])
        # bucket i: edges[i-1] < v <= edges[i]; overflow last
        counts = bucket_counts(values, edges)
        assert counts.tolist() == [2, 2, 2, 1]
        assert counts.dtype == np.int64

    def test_total_is_preserved(self, rng):
        values = rng.lognormal(size=257)
        counts = bucket_counts(values, np.asarray(DEFAULT_BUCKETS))
        assert int(counts.sum()) == values.size
        assert counts.size == len(DEFAULT_BUCKETS) + 1

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            bucket_counts(np.array([1.0]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            bucket_counts(np.array([1.0]), np.array([]))


class TestHistogram:
    def test_observe_many_equals_observe_loop(self, rng):
        values = rng.lognormal(size=100)
        one = Histogram("h")
        many = Histogram("h")
        for v in values:
            one.observe(v)
        many.observe_many(values)
        a, b = one.snapshot(), many.snapshot()
        # numpy's pairwise sum orders the adds differently than the
        # scalar loop; every discrete field must still match exactly
        assert a.pop("sum") == pytest.approx(b.pop("sum"))
        assert a == b

    def test_observe_many_empty_is_noop(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0 and hist.min is None

    def test_fixed_memory(self):
        hist = Histogram("h", edges=(1.0, 2.0))
        for v in range(1000):
            hist.observe(float(v))
        assert len(hist.counts) == 3
        assert hist.count == 1000 and hist.max == 999.0


class TestMetricsRegistry:
    def test_create_or_get_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("c", mode="fast")
        b = reg.counter("c", mode="fast")
        other = reg.counter("c", mode="slow")
        assert a is b and a is not other
        a.inc(2)
        snap = reg.snapshot()
        assert snap["c{mode=fast}"]["value"] == 2.0
        assert snap["c{mode=slow}"]["value"] == 0.0
        assert reg.updates == 3

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_is_sorted_and_filters_timings(self):
        reg = MetricsRegistry()
        reg.gauge("zeta").set(1)
        reg.counter("alpha").inc()
        reg.histogram("phase_seconds").observe(0.5)
        assert list(reg.snapshot()) == ["alpha", "phase_seconds", "zeta"]
        assert list(reg.snapshot(include_timings=False)) == ["alpha", "zeta"]

    def test_timing_suffixes(self):
        assert is_timing_metric("eval.rank_compute_seconds")
        assert is_timing_metric("span_ms")
        assert not is_timing_metric("nid.puzzlement")


# ---------------------------------------------------------------------- #
# tracer + probes
# ---------------------------------------------------------------------- #
class TestProbesDisabled:
    def test_off_by_default_and_noop(self):
        assert not enabled()
        assert obs.span("a", x=1) is obs.span("b")  # shared null span
        with obs.span("a"):
            pass
        obs.event("e", x=1)
        obs.counter("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 0.5)
        obs.observe_many("h", [0.5, 1.5])
        obs.sync()
        assert obs.current_tracer() is None


class TestTracer:
    def test_span_nesting_ids_and_events(self, tmp_path):
        with tracing(tmp_path, run_id="t") as tracer:
            with tracer.span("outer", key="v") as outer:
                with tracer.span("inner") as inner:
                    tracer.event("decided", user=3)
                assert tracer.current_span_id() == outer.id
        events, skipped = read_trace(tmp_path)
        assert skipped == 0
        kinds = [e["kind"] for e in events]
        assert kinds == ["trace_open", "span_start", "span_start",
                        "event", "span_end", "span_end"]
        starts = {e["name"]: e for e in events if e["kind"] == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["id"]
        assert starts["outer"]["id"] < starts["inner"]["id"]
        decided = [e for e in events if e["kind"] == "event"][0]
        assert decided["span"] == inner.id
        assert decided["fields"] == {"user": 3}

    def test_span_records_error(self, tmp_path):
        with tracing(tmp_path):
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("x")
        events, _ = read_trace(tmp_path)
        end = [e for e in events if e["kind"] == "span_end"][0]
        assert end["error"] == "RuntimeError"

    def test_double_start_is_an_error(self, tmp_path):
        with tracing(tmp_path / "a"):
            with pytest.raises(TraceError, match="already active"):
                start_tracing(tmp_path / "b")
        assert not enabled()

    def test_sidecars_and_metrics_record(self, tmp_path):
        with tracing(tmp_path) as tracer:
            obs.counter("imsr.capsules_added", 3)
            obs.observe("nid.puzzlement", 0.7)
        meta = json.loads((tmp_path / META_NAME).read_text())
        metrics = json.loads((tmp_path / METRICS_NAME).read_text())
        events, _ = read_trace(tmp_path)
        assert meta["events"] == len(events) == tracer.events_written
        assert meta["metric_updates"] == 2
        assert metrics["imsr.capsules_added"]["value"] == 3.0
        assert events[-1]["kind"] == "metrics"
        assert events[-1]["metrics"] == metrics

    def test_numpy_payloads_become_json(self, tmp_path):
        with tracing(tmp_path):
            obs.event("e", score=np.float32(0.5), n=np.int64(3),
                      flag=np.bool_(True), arr=np.arange(2))
        events, _ = read_trace(tmp_path)
        fields = [e for e in events if e["kind"] == "event"][0]["fields"]
        assert fields == {"score": 0.5, "n": 3, "flag": True, "arr": [0, 1]}


class TestCrashRecovery:
    def test_torn_tail_is_skipped_then_truncated_on_resume(self, tmp_path):
        with tracing(tmp_path):
            obs.event("before")
        trace_path = tmp_path / "trace.jsonl"
        with open(trace_path, "ab") as fh:
            fh.write(b'{"kind": "event", "name": "torn"')  # no newline
        events, skipped = read_trace(tmp_path)
        assert skipped == 1
        assert all(e.get("name") != "torn" for e in events)

        with tracing(tmp_path, resume=True):
            obs.event("after")
        events, skipped = read_trace(tmp_path)
        assert skipped == 0
        names = [e.get("name") for e in events if e["kind"] == "event"]
        assert names == ["before", "after"]
        opens = [e for e in events if e["kind"] == "trace_open"]
        assert [o["resumed"] for o in opens] == [False, True]

    def test_fresh_start_replaces_existing_trace(self, tmp_path):
        with tracing(tmp_path):
            obs.event("old")
        with tracing(tmp_path):
            obs.event("new")
        events, _ = read_trace(tmp_path)
        names = [e.get("name") for e in events if e["kind"] == "event"]
        assert names == ["new"]


class TestFingerprint:
    def test_live_fingerprint_matches_readback(self, tmp_path):
        with tracing(tmp_path) as tracer:
            with obs.span("run"):
                obs.observe("nid.puzzlement", 0.9)
                obs.observe("eval.rank_compute_seconds", 0.123)  # timing
                obs.event("nid.expansion", user=1)
        meta = json.loads((tmp_path / META_NAME).read_text())
        events, _ = read_trace(tmp_path)
        assert tracer.fingerprint() == meta["fingerprint"]
        assert trace_fingerprint(events) == meta["fingerprint"]

    def test_fingerprint_strips_wall_clock_only(self):
        record = {"kind": "span_end", "id": 2, "name": "x", "dur_s": 0.5}
        assert strip_timing(record) == {"kind": "span_end", "id": 2,
                                        "name": "x"}
        a = fingerprint_view({"kind": "metrics", "metrics": {
            "nid.puzzlement": {"count": 1},
            "eval.rank_compute_seconds": {"count": 1},
            "eval.rank_compute_seconds{mode=fast}": {"count": 2}}})
        assert list(a["metrics"]) == ["nid.puzzlement"]

    def test_identical_content_different_timings_same_fingerprint(
            self, tmp_path):
        prints = []
        for sub in ("a", "b"):
            with tracing(tmp_path / sub) as tracer:
                with obs.span("run", spans=4):
                    obs.event("pit.trim", removed=2)
                obs.observe("train.loss", 1.5)
            prints.append(tracer.fingerprint())
        assert prints[0] == prints[1]


# ---------------------------------------------------------------------- #
# logging bridge
# ---------------------------------------------------------------------- #
class TestLoggingBridge:
    def test_get_logger_nests_under_repro(self):
        assert get_logger("repro.x").name == "repro.x"
        assert get_logger("tools").name == "repro.tools"

    def test_configure_is_idempotent(self):
        root = configure_logging(level=logging.WARNING)
        before = len(root.handlers)
        configure_logging(level=logging.INFO)
        assert len(root.handlers) == before
        assert root.level == logging.INFO

    def test_records_mirror_into_active_trace(self, tmp_path):
        logger = get_logger("repro.test_obs")
        with tracing(tmp_path):
            logger.warning("rollback to span %d", 2)
        logger.warning("after trace closed")  # must not raise
        events, _ = read_trace(tmp_path)
        logs = [e for e in events
                if e["kind"] == "event" and e["name"] == "log"]
        assert len(logs) == 1
        assert logs[0]["fields"] == {"level": "WARNING",
                                     "logger": "repro.test_obs",
                                     "message": "rollback to span 2"}


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
class TestSummarize:
    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(TraceError, match="no trace"):
            summarize_trace(tmp_path / "nope")

    def test_synthetic_trace_summary(self, tmp_path):
        with tracing(tmp_path, run_id="books-IMSR"):
            with obs.span("train_span", span_id=1):
                obs.event("nid.expansion", user=4, span_id=1, puzzlement=0.9,
                          delta_k=2, num_interests=6)
                obs.event("nid.expansion", user=1, span_id=1, puzzlement=0.8,
                          delta_k=2, num_interests=6)
                obs.event("pit.trim", user=4, span_id=1, removed=3,
                          remaining=3)
                obs.event("eir.distill", user=4, span_id=1, kd=0.25,
                          retainer="interest")
            obs.counter("imsr.capsules_added", 4)
        summary = summarize_trace(tmp_path)
        assert summary["runs"] == [{"run_id": "books-IMSR", "resumed": False}]
        assert summary["nid_expansions"] == {1: [1, 4]}
        assert summary["pit_trims"] == {1: 3}
        assert summary["eir"]["count"] == 1
        assert summary["eir"]["max"] == 0.25
        assert summary["metrics"]["imsr.capsules_added"]["value"] == 4.0
        assert summary["spans"]["train_span"]["closed"] == 1

        text = render_summary(summary)
        assert "nid.expansion  span 1: 2 user(s) [1, 4]" in text
        assert "pit.trim       span 1: 3 capsule(s) removed" in text
        assert summary["fingerprint"][:16] in text
