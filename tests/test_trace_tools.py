"""Tests for the trace tooling: percentiles, diffs and flamegraphs."""

import json

import pytest

from repro.experiments import run_strategy
from repro.obs import (
    build_span_tree,
    collapsed_stacks,
    critical_path,
    diff_traces,
    read_trace,
    render_critical_path,
    render_diff,
    render_summary,
    speedscope_profile,
    summarize_trace,
)

from tests.test_crash_resume import build, fast_config


@pytest.fixture(scope="module")
def traced_pair(tiny_split, tmp_path_factory):
    """Two profiled traced runs of the same seeded strategy."""
    root = tmp_path_factory.mktemp("traces")
    for sub in ("a", "b"):
        run_strategy(build(tiny_split, config=fast_config()), tiny_split,
                     "tiny", "ComiRec-DR", trace_dir=root / sub,
                     profile=True)
    return root / "a", root / "b"


# ---------------------------------------------------------------------- #
# percentile rendering
# ---------------------------------------------------------------------- #
class TestPercentileRendering:
    def test_summary_rows_carry_p50_p95_p99(self, traced_pair):
        summary = summarize_trace(traced_pair[0])
        text = render_summary(summary)
        # every histogram with data renders its percentile cells
        assert "p50=" in text and "p95=" in text and "p99=" in text

    def test_percentiles_respect_observed_range(self, traced_pair):
        from repro.obs.metrics import quantile_from_snapshot
        summary = summarize_trace(traced_pair[0])
        hists = [state for state in summary["metrics"].values()
                 if state.get("type") == "histogram" and state.get("count")]
        assert hists
        for state in hists:
            p50 = quantile_from_snapshot(state, 0.50)
            p99 = quantile_from_snapshot(state, 0.99)
            assert state["min"] <= p50 <= p99 <= state["max"]


# ---------------------------------------------------------------------- #
# trace diff
# ---------------------------------------------------------------------- #
class TestTraceDiff:
    def test_identical_decisions_match_fingerprints(self, traced_pair):
        diff = diff_traces(*traced_pair)
        assert diff["fingerprints_match"]
        assert diff["counters"] == {}  # same decisions -> same counts
        assert set(diff["spans"])  # spans still compared for timing

    def test_diff_detects_changed_runs(self, tiny_split, traced_pair,
                                       tmp_path):
        run_strategy(
            build(tiny_split, config=fast_config(epochs_incremental=2)),
            tiny_split, "tiny", "ComiRec-DR", trace_dir=tmp_path,
            profile=True)
        diff = diff_traces(traced_pair[0], tmp_path)
        assert not diff["fingerprints_match"]
        assert diff["counters"]  # train.steps etc. moved
        text = render_diff(diff)
        assert "fingerprints DIFFER" in text
        assert "metrics (changed only):" in text

    def test_render_diff_marks_matching_runs_as_timing_only(
            self, traced_pair):
        text = render_diff(diff_traces(*traced_pair))
        assert "fingerprints match" in text
        assert "timing only" in text


# ---------------------------------------------------------------------- #
# flamegraphs / critical path
# ---------------------------------------------------------------------- #
class TestFlame:
    def test_span_tree_reassembles_the_run(self, traced_pair):
        events, _ = read_trace(traced_pair[0])
        roots = build_span_tree(events)
        assert roots
        names = {root["name"] for root in roots}
        assert "run" in names
        run = next(r for r in roots if r["name"] == "run")
        assert run["dur_s"] > 0 and run["children"]

    def test_collapsed_stacks_are_wellformed(self, traced_pair):
        events, _ = read_trace(traced_pair[0])
        lines = collapsed_stacks(events)
        assert lines == sorted(lines)
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert stack.split(";")[0] == "run"
        # op leaves appear under their span path
        assert any("fwd." in line for line in lines)

    def test_critical_path_descends_the_heaviest_chain(self, traced_pair):
        events, _ = read_trace(traced_pair[0])
        segments = critical_path(events)
        assert segments and segments[0]["name"] == "run"
        durs = [seg["dur_s"] for seg in segments]
        assert durs == sorted(durs, reverse=True)  # children nest inside
        text = render_critical_path(segments)
        assert text.startswith("critical path")
        assert render_critical_path([]) == "critical path: (no spans)"

    def test_speedscope_document_is_balanced(self, traced_pair):
        events, _ = read_trace(traced_pair[0])
        doc = speedscope_profile(events)
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        depth = 0
        last_at = 0.0
        for evt in profile["events"]:
            assert evt["at"] >= last_at - 1e-12  # monotone timeline
            last_at = evt["at"]
            depth += 1 if evt["type"] == "O" else -1
            assert depth >= 0
        assert depth == 0  # every open frame closes
        assert profile["endValue"] >= profile["startValue"]
        json.dumps(doc)  # serializable as-is

    def test_unclosed_spans_are_tolerated(self):
        events = [
            {"kind": "span_start", "id": 1, "name": "run", "wall": 0.0},
            {"kind": "span_start", "id": 2, "name": "train_span",
             "parent": 1, "wall": 0.1},
            {"kind": "span_end", "id": 2, "dur_s": 0.5},
            # id 1 never closes: a crashed run
        ]
        roots = build_span_tree(events)
        assert roots[0]["dur_s"] == pytest.approx(0.5)
        assert critical_path(events)[0]["name"] == "run"
