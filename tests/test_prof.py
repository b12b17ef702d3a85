"""Unit tests for repro.obs.prof: the op-level profiler.

Covers the disabled fast path (shared null contexts, no state), the
hook lifecycle (one profiler at a time, the backend left as it was), the
self-reporting backend scatters, kernel
attribution from the autograd sandwich and explicit op scopes, memory
accounting, trace folding, and the headline acceptance property: a
profiled run is bit-identical to an unprofiled one.
"""

import gc

import numpy as np
import pytest

import repro.backend as backend
from repro.autograd import Tensor
from repro.experiments import run_strategy
from repro.models import ComiRecDR
from repro.nn import Adam, Parameter, clip_grad_norm
from repro.obs import prof as _prof
from repro.obs import (
    MemTracker,
    prof_rollup,
    read_trace,
    shape_bucket,
    start_profiling,
    stop_profiling,
    trace_fingerprint,
    tracing,
)
from repro.obs.prof import _NULL_CTX

from tests.test_crash_resume import (
    assert_metric_identical,
    build,
    fast_config,
)


@pytest.fixture(autouse=True)
def _profiling_off():
    """Every test starts and ends with profiling disarmed."""
    stop_profiling()
    yield
    stop_profiling()


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def shape_buckets():
    return [shape_bucket(1), shape_bucket(3), shape_bucket(64),
            shape_bucket(65), shape_bucket(4, 100)]


class TestShapeBucket:
    def test_rounds_up_to_powers_of_two(self):
        assert shape_bucket(1) == "1"
        assert shape_bucket(3) == "4"
        assert shape_bucket(64) == "64"
        assert shape_bucket(65) == "128"
        assert shape_bucket(4, 100) == "4x128"

    def test_degenerate_dims_bucket_to_one(self):
        assert shape_bucket(0) == "1"
        assert shape_bucket(-2) == "1"


class TestDisabledFastPath:
    def test_scopes_are_the_shared_null_context(self):
        assert _prof.op("anything") is _NULL_CTX
        assert _prof.phase("anything") is _NULL_CTX
        with _prof.op("x"):
            with _prof.phase("y"):
                pass  # nesting the null context is harmless

    def test_disabled_state_is_fully_disarmed(self):
        assert not _prof.enabled()
        assert _prof.current_profiler() is None
        assert _prof._AUTOGRAD is None
        assert _prof._MEM is None

    def test_tensor_ops_fire_no_hooks_while_disabled(self):
        result = (Tensor(np.ones((3, 3)), requires_grad=True) @ Tensor(np.eye(3))).sum()
        result.backward()
        assert _prof.current_profiler() is None
        assert _prof._AUTOGRAD is None and _prof._MEM is None


class TestLifecycle:
    def test_profiling_leaves_the_backend_unchanged(self):
        for name, dtype in (("default", np.float64), ("fast", np.float32)):
            with backend.use_backend(name):
                prof = start_profiling()
                assert _prof.current_profiler() is prof
                assert backend.active_backend_name() == name
                assert backend.compute_dtype == dtype
                with _prof.phase("train"):
                    x = Tensor(np.ones((5, 2)), requires_grad=True)
                    x.gather_rows([0, 3, 3]).sum().backward()
                assert stop_profiling() is prof
                assert backend.active_backend_name() == name
                assert backend.compute_dtype == dtype
            assert x.grad.dtype == dtype
            assert prof.elapsed_s > 0
            # the embedding backward's scatter reported itself
            assert {op for (_, op, _) in prof.backend_ops} == {"scatter_add"}

    def test_double_start_is_rejected(self):
        start_profiling()
        with pytest.raises(RuntimeError, match="already active"):
            start_profiling()

    def test_stop_without_start_is_a_noop(self):
        assert stop_profiling() is None

    def test_profiling_context_manager_scopes_activation(self):
        with _prof.profiling() as prof:
            assert _prof.current_profiler() is prof
        assert _prof.current_profiler() is None


class TestBackendScatters:
    def test_same_bytes_with_and_without_profiler(self, rng):
        table = np.zeros((6, 3))
        indices = np.array([4, 1, 4, 0])
        updates = rng.standard_normal((4, 3))
        results = []
        for profiled in (False, True):
            if profiled:
                start_profiling()
            out = table.copy()
            backend.scatter_add(out, indices, updates)
            rows, sums = backend.segment_sum(table, indices, updates)
            stop_profiling()
            results.append((out, rows, sums))
        (out, rows, sums), (out_p, rows_p, sums_p) = results
        assert out.tobytes() == out_p.tobytes()
        assert rows.tobytes() == rows_p.tobytes()
        assert sums.tobytes() == sums_p.tobytes()
        np.testing.assert_array_equal(rows, [0, 1, 4])
        assert sums.tobytes() == out[rows].tobytes()

    def test_ops_recorded_with_flops_and_bytes(self, rng):
        prof = start_profiling()
        with _prof.phase("test"):
            dt = backend.compute_dtype
            table = np.zeros((6, 3), dtype=dt)
            updates = rng.standard_normal((4, 3)).astype(dt)
            backend.scatter_add(table, np.array([4, 1, 4, 0]), updates)
            backend.segment_sum(table, np.array([2, 2, 3, 5]), updates)
        stop_profiling()
        rows = {(phase, op): entry
                for (phase, op, _), entry in prof.backend_ops.items()}
        scatter = rows[("test", "scatter_add")]
        assert scatter[0] == 2  # segment_sum records as a scatter_add
        assert scatter[2] == pytest.approx(2 * updates.size)
        assert scatter[3] > 0


class TestKernelAttribution:
    def test_sandwich_names_forward_and_backward_ops(self):
        prof = start_profiling()
        with _prof.phase("train"):
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            loss = (x @ Tensor(np.eye(4))).sum()
            loss.backward()
        stop_profiling()
        ops = {op for (_, op) in prof.kernels}
        assert any(op.startswith("fwd.") for op in ops)
        assert any(op.startswith("bwd.") for op in ops)
        assert all(ph == "train" for (ph, _) in prof.kernels)

    def test_explicit_op_scope_is_a_named_kernel(self):
        prof = start_profiling()
        with _prof.phase("train"):
            with _prof.op("optim.step"):
                sum(range(100))
        stop_profiling()
        count, total = prof.kernels[("train", "optim.step")]
        assert count == 1 and total > 0

    def test_phase_wall_is_exclusive_of_nested_phases(self):
        prof = start_profiling()
        with _prof.phase("outer"):
            with _prof.phase("inner"):
                sum(range(2000))
        stop_profiling()
        assert prof.phase_wall["inner"] > 0
        assert prof.phase_wall["outer"] >= 0
        # exclusive walls: outer's own time excludes inner entirely
        assert prof.phase_wall["outer"] < prof.phase_wall["inner"] * 100

    def test_attribution_fractions_are_consistent(self):
        prof = start_profiling()
        with _prof.phase("train"):
            x = Tensor(np.ones((16, 16)), requires_grad=True)
            for _ in range(5):
                (x @ x).sum().backward()
        stop_profiling()
        attribution = prof.attribution()
        train = attribution["train"]
        assert train["wall_s"] > 0
        assert 0.0 < train["frac"] <= 1.05  # clock granularity slack
        assert attribution["overall"]["kernel_s"] == \
            pytest.approx(train["kernel_s"])

    def test_per_user_step_records_the_clip_kernel(self):
        """Gradient clipping runs numpy between backward() and the
        optimizer step; without its own scope that time is unattributed."""
        model = ComiRecDR(50, dim=8, num_interests=2, seed=0)
        state = model.init_user_state(0)
        opt = Adam(list(model.parameters()), lr=0.01)
        prof = start_profiling()
        with _prof.phase("train"):
            interests = model.compute_interests(state, [1, 2, 3, 4, 2])
            loss = model.loss_targets(interests, [5, 9],
                                      np.array([[6, 7, 8], [3, 6, 1]]))
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(opt.params, 5.0)
            opt.step()
        stop_profiling()
        count, total = prof.kernels[("train", "optim.clip")]
        assert count == 1 and total > 0
        ops = {op for (_, op) in prof.kernels}
        # the deferred row sums of the item table stay gather_rows' cost
        assert {"optim.step", "bwd.gather_rows"} <= ops

    def test_report_sorts_and_truncates(self):
        prof = start_profiling()
        with _prof.phase("p"):
            for name, loops in (("op.slow", 50_000), ("op.fast", 10)):
                with _prof.op(name):
                    sum(range(loops))
        stop_profiling()
        report = prof.report()
        totals = [row["total_s"] for row in report["kernels"]]
        assert totals == sorted(totals, reverse=True)
        assert report["kernels"][0]["op"] == "op.slow"
        assert len(prof.report(top=1)["kernels"]) == 1


class TestMemTracker:
    def test_tracks_live_and_peak_bytes(self):
        tracker = MemTracker()
        x = Tensor(np.zeros(100, dtype=np.float64))
        tracker.track(x)
        assert tracker.live == 800
        assert tracker.peak == 800
        assert tracker.tracked == 1
        del x
        gc.collect()
        assert tracker.live == 0
        assert tracker.peak == 800  # peaks never regress

    def test_span_watermarks_propagate_outward(self):
        tracker = MemTracker()
        tracker.push_span()
        tracker.push_span()
        keep = Tensor(np.zeros(10))
        tracker.track(keep)
        inner_peak = tracker.pop_span()
        assert inner_peak == tracker.live
        outer_peak = tracker.pop_span()
        assert outer_peak >= inner_peak

    def test_profiled_run_counts_tensors(self):
        prof = start_profiling()
        with _prof.phase("p"):
            for _ in range(3):
                Tensor(np.ones((8, 8)), requires_grad=True).sum().backward()
        stop_profiling()
        memory = prof.report()["memory"]
        assert memory["tensors_tracked"] >= 3
        assert memory["peak_bytes"] > 0


class TestStepSampling:
    def test_timeline_stride_doubles_past_the_cap(self):
        prof = start_profiling()
        prof._stride = 1
        for _ in range(_prof._TIMELINE_CAP + 10):
            prof.on_step()
        stop_profiling()
        assert prof._stride >= 2
        assert len(prof.mem_timeline) <= _prof._TIMELINE_CAP + 1
        assert prof.steps == _prof._TIMELINE_CAP + 10

    def test_optimizer_step_samples_memory_without_backend_instrumentation(
            self):
        """Optimizers signal the step boundary to the profiler directly,
        so memory is sampled with no scatter in the step."""
        weight = Parameter(np.ones((4, 3)))
        opt = Adam([weight], lr=0.1)
        prof = start_profiling()
        (weight * weight).sum().backward()
        opt.step()
        stop_profiling()
        assert prof.steps == 1
        assert len(prof.mem_timeline) == 1
        assert prof.mem_timeline[0]["step"] == 1


class TestRunIntegration:
    def test_profiled_run_is_bit_identical(self, tiny_split):
        config = fast_config()
        reference = run_strategy(build(tiny_split, config=config),
                                 tiny_split, "tiny", "ComiRec-DR")
        profiled = run_strategy(build(tiny_split, config=config),
                                tiny_split, "tiny", "ComiRec-DR",
                                profile=True)
        assert_metric_identical(profiled, reference)
        assert profiled.profile is not None
        assert reference.profile is None

    def test_profile_report_attributes_the_run(self, tiny_split):
        result = run_strategy(build(tiny_split), tiny_split, "tiny",
                              "ComiRec-DR", profile=True)
        report = result.profile
        for phase in ("pretrain", "train", "extract", "eval"):
            assert phase in report["attribution"], phase
        assert report["attribution"]["overall"]["frac"] > 0.5
        ops = {row["op"] for row in report["kernels"]}
        assert any(op.startswith("fwd.") for op in ops)
        assert any(op.startswith("bwd.") for op in ops)
        assert "optim.step" in ops
        assert {"eval.score", "eval.rank"} <= ops
        assert report["memory"]["tensors_tracked"] > 0
        assert report["steps"] > 0

    def test_profiled_trace_carries_op_records(self, tiny_split, tmp_path):
        run_strategy(build(tiny_split), tiny_split, "tiny", "ComiRec-DR",
                     trace_dir=tmp_path, profile=True)
        events, skipped = read_trace(tmp_path)
        assert skipped == 0
        kinds = {e.get("kind") for e in events}
        assert {"kernel_stats", "op_stats", "op_span", "phase_stats",
                "mem_summary"} <= kinds
        rollup = prof_rollup(events)
        assert rollup is not None
        assert rollup["attribution"]["train"]["frac"] > 0

    def test_two_profiled_traces_have_identical_fingerprints(
            self, tiny_split, tmp_path):
        for sub in ("a", "b"):
            run_strategy(build(tiny_split), tiny_split, "tiny",
                         "ComiRec-DR", trace_dir=tmp_path / sub,
                         profile=True)
        fp_a = trace_fingerprint(read_trace(tmp_path / "a")[0])
        fp_b = trace_fingerprint(read_trace(tmp_path / "b")[0])
        assert fp_a == fp_b

    def test_emit_outside_trace_is_safe(self):
        start_profiling()
        with _prof.phase("p"):
            Tensor(np.ones(4), requires_grad=True).sum().backward()
        assert stop_profiling() is not None  # no tracer active

    def test_emitted_stats_survive_inside_a_trace(self, tmp_path):
        with tracing(tmp_path):
            start_profiling()
            with _prof.phase("p"):
                with _prof.op("custom.kernel"):
                    sum(range(1000))
            stop_profiling()
        events, _ = read_trace(tmp_path)
        kernel_rows = [e for e in events if e.get("kind") == "kernel_stats"]
        assert any(e["op"] == "custom.kernel" for e in kernel_rows)
