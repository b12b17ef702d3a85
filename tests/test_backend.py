"""The pluggable compute backend (:mod:`repro.backend`).

Four families of guarantees:

1. **Selection** — registry names/aliases, scoped switching, the
   ``REPRO_BACKEND`` environment hook, and dtype threading into Tensors.
2. **Equivalence** — the fused kernels agree with the op-by-op graphs to
   float64 round-off when fusion is isolated (``FusedF64``), the fast
   float32 backend stays within documented drift tolerances, and a
   crash/resumed fast run is metric-identical to its uninterrupted twin.
3. **Pool lifecycle** — buffers are reused across steps, never while
   lent, and nothing that survives an optimizer step aliases pool
   memory (checked under the PR 6 write-guard sanitizer).
4. **Contracts** — every backend op's shape contract rejects malformed
   operands for both backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import backend, sanitize
from repro.backend import (
    BufferPool,
    FastBackend,
    NumpyBackend,
    available_backends,
    set_backend,
    use_backend,
)
from repro.backend.pool import MAX_POOLED_ELEMS
from repro.contracts import ContractViolation, enforced
from repro.experiments import make_strategy, run_strategy
from repro.faults import FaultPlan, SimulatedCrash, active
from repro.incremental import TrainConfig
from repro.models import (
    MIND,
    ComiRecDR,
    ComiRecSA,
    batched_compute_interests,
    batched_loss_targets,
)
from repro.obs import read_trace, render_summary, summarize_trace
from repro.stream import MODE_HEALTHY, run_stream

REPO_ROOT = Path(__file__).resolve().parent.parent
MODEL_CLASSES = {"MIND": MIND, "ComiRec-DR": ComiRecDR, "ComiRec-SA": ComiRecSA}
FAMILIES = sorted(MODEL_CLASSES)

#: documented float32 drift tolerances (see docs/PERFORMANCE.md):
#: per-step loss agrees to ~1e-3 relative; end-of-run ranking metrics on
#: the tiny world stay within 0.1 absolute of the float64 run.
F32_LOSS_RTOL = 1e-3
F32_GRAD_RTOL = 5e-2
F32_METRIC_ATOL = 0.1


class FusedF64(NumpyBackend):
    """Float64 + fused kernels: isolates fusion error from dtype error."""

    name = "fused-f64"
    fused = True


def make_model(name, **overrides):
    kwargs = dict(dim=10, num_interests=3, seed=3)
    kwargs.update(overrides)
    return MODEL_CLASSES[name](80, **kwargs)


def make_jobs(model, seed=0, count=4):
    """Varying sequence lengths and K_u, exactly like training sees."""
    rng = np.random.default_rng(seed)
    jobs = []
    for user in range(count):
        state = model.init_user_state(user)
        if user % 2 == 0:
            model.expand_user(state, 1 + user % 2, span=1)
        seq = rng.integers(0, model.num_items,
                           size=int(rng.integers(3, 10))).tolist()
        jobs.append((state, seq))
    return jobs


def per_user_loss(model, state, seq, seed=0):
    """compute_interests -> loss_targets -> backward; returns the loss."""
    rng = np.random.default_rng(seed)
    interests = model.compute_interests(state, seq)
    targets = rng.integers(0, model.num_items, size=3).tolist()
    negatives = rng.integers(0, model.num_items, size=(3, 4))
    loss = model.loss_targets(interests, targets, negatives)
    loss.backward()
    return loss


def grad_snapshot(model):
    return {name: param.grad.copy()
            for name, param in model.named_parameters()
            if param.grad is not None}


def fast_config(**overrides):
    base = dict(epochs_pretrain=2, epochs_incremental=1,
                num_negatives=4, seed=0)
    return TrainConfig(**{**base, **overrides})


def build(tiny_split, config=None, model="ComiRec-DR"):
    return make_strategy("IMSR", model, tiny_split, config or fast_config(),
                         model_kwargs={"dim": 10, "num_interests": 2},
                         strategy_kwargs={"c1": 0.2})


def assert_metric_identical(result, reference):
    assert len(result.per_span) == len(reference.per_span)
    for ours, theirs in zip(result.per_span, reference.per_span):
        assert ours.hr == theirs.hr
        assert ours.ndcg == theirs.ndcg
    assert result.hr == reference.hr
    assert result.ndcg == reference.ndcg


# --------------------------------------------------------------------- #
# 1. selection
# --------------------------------------------------------------------- #


class TestSelection:
    def test_default_backend(self):
        assert backend.active.name == "default"
        assert backend.active.compute_dtype == np.float64
        assert not backend.active.fused
        assert backend.active_backend_name() == "default"

    def test_available_backends(self):
        assert available_backends() == ("default", "fast")

    @pytest.mark.parametrize("alias,name", [
        ("default", "default"), ("numpy", "default"), ("exact", "default"),
        ("fast", "fast"), ("f32", "fast"), ("FAST", "fast"),
    ])
    def test_aliases(self, alias, name):
        with use_backend(alias) as active_backend:
            assert active_backend.name == name

    def test_set_backend_returns_previous(self):
        previous = set_backend("fast")
        try:
            assert previous.name == "default"
            assert backend.active.name == "fast"
        finally:
            set_backend(previous)
        assert backend.active is previous

    def test_use_backend_restores_on_error(self):
        before = backend.active
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert backend.active is before

    def test_instance_injection(self):
        probe = FusedF64()
        with use_backend(probe) as active_backend:
            assert active_backend is probe

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cuda")

    def test_env_selection(self):
        env = dict(os.environ, REPRO_BACKEND="fast",
                   PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.backend as b; print(b.active.name)"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "fast"

    def test_env_typo_fails_loud(self):
        env = dict(os.environ, REPRO_BACKEND="fats",
                   PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", "import repro.backend"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert out.returncode != 0
        assert "unknown backend" in out.stderr


class TestDtypeThreading:
    def test_tensor_dtype_follows_backend(self):
        from repro.autograd import Tensor

        assert Tensor([1.0, 2.0]).data.dtype == np.float64
        with use_backend("fast"):
            t = Tensor([[1.0, 2.0]], requires_grad=True)
            assert t.data.dtype == np.float32
            (t * t).sum().backward()
            assert t.grad.dtype == np.float32

    @pytest.mark.parametrize("name", FAMILIES)
    def test_model_parameters_and_state(self, name):
        with use_backend("fast"):
            model = make_model(name)
            for _, param in model.named_parameters():
                assert param.data.dtype == np.float32
            state = model.init_user_state(0)
            assert state.interests.dtype == np.float32
            interests = model.compute_interests(state, [1, 2, 3])
            assert interests.data.dtype == np.float32

    def test_embedding_grow_preserves_dtype(self):
        from repro.nn import Embedding

        with use_backend("fast"):
            emb = Embedding(8, 4, rng=np.random.default_rng(0))
            emb.grow(4, rng=np.random.default_rng(1))
            assert emb.weight.data.dtype == np.float32
            assert emb.weight.data.shape == (12, 4)


# --------------------------------------------------------------------- #
# 2. equivalence
# --------------------------------------------------------------------- #


class TestFusedMatchesUnfusedF64:
    """Fusion alone (still float64) reproduces the op-by-op graphs to
    round-off: interests, losses, and every parameter gradient."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_user_interests_and_grads(self, name):
        exact, fused = make_model(name), make_model(name)
        jobs_e, jobs_f = make_jobs(exact), make_jobs(fused)
        for (state_e, seq), (state_f, _) in zip(jobs_e, jobs_f):
            loss_e = per_user_loss(exact, state_e, seq)
            with use_backend(FusedF64()):
                loss_f = per_user_loss(fused, state_f, seq)
            np.testing.assert_allclose(loss_f.data, loss_e.data,
                                       rtol=0, atol=1e-12)
            grads_e, grads_f = grad_snapshot(exact), grad_snapshot(fused)
            assert grads_e.keys() == grads_f.keys()
            for key in grads_e:
                np.testing.assert_allclose(grads_f[key], grads_e[key],
                                           rtol=0, atol=1e-12)
            exact.zero_grad()
            fused.zero_grad()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_batched_training_path(self, name):
        exact, fused = make_model(name), make_model(name)
        jobs_e, jobs_f = make_jobs(exact), make_jobs(fused)
        rng = np.random.default_rng(7)
        targets = [rng.integers(0, 80, size=3).tolist() for _ in jobs_e]
        negatives = [rng.integers(0, 80, size=(3, 4)) for _ in jobs_e]

        def group_loss(model, jobs):
            interests, capsule_mask, _ = batched_compute_interests(
                model, jobs)
            loss = batched_loss_targets(model, interests, capsule_mask,
                                        targets, negatives)
            loss.backward()
            return loss

        loss_e = group_loss(exact, jobs_e)
        with use_backend(FusedF64()):
            loss_f = group_loss(fused, jobs_f)
        np.testing.assert_allclose(loss_f.data, loss_e.data,
                                   rtol=0, atol=1e-12)
        grads_e, grads_f = grad_snapshot(exact), grad_snapshot(fused)
        assert grads_e.keys() == grads_f.keys()
        for key in grads_e:
            np.testing.assert_allclose(grads_f[key], grads_e[key],
                                       rtol=0, atol=1e-12)


class TestFastF32Drift:
    """The float32 backend tracks float64 within documented tolerances."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_user_loss_drift(self, name):
        exact = make_model(name)
        with use_backend("fast"):
            fast = make_model(name)
            jobs_f = make_jobs(fast)
        jobs_e = make_jobs(exact)
        for (state_e, seq), (state_f, _) in zip(jobs_e, jobs_f):
            loss_e = per_user_loss(exact, state_e, seq)
            with use_backend("fast"):
                loss_f = per_user_loss(fast, state_f, seq)
            np.testing.assert_allclose(loss_f.data, loss_e.data,
                                       rtol=F32_LOSS_RTOL, atol=1e-4)
            grads_e, grads_f = grad_snapshot(exact), grad_snapshot(fast)
            for key in grads_e:
                scale = np.abs(grads_e[key]).max() or 1.0
                drift = np.abs(grads_f[key].astype(np.float64)
                               - grads_e[key]).max()
                assert drift <= F32_GRAD_RTOL * scale + 1e-6, (key, drift)
            exact.zero_grad()
            fast.zero_grad()

    def test_end_to_end_metric_drift(self, tiny_split):
        reference = run_strategy(build(tiny_split), tiny_split,
                                 "tiny", "ComiRec-DR")
        with use_backend("fast"):
            fast = run_strategy(build(tiny_split), tiny_split,
                                "tiny", "ComiRec-DR")
        assert np.isfinite(fast.hr) and np.isfinite(fast.ndcg)
        assert abs(fast.hr - reference.hr) <= F32_METRIC_ATOL
        assert abs(fast.ndcg - reference.ndcg) <= F32_METRIC_ATOL


class TestCrashResumeUnderFast:
    """Crash-safety is backend-independent: a resumed fast run is
    metric-identical (exact float equality) to its uninterrupted twin."""

    def test_crash_then_resume_matches_uninterrupted(self, tiny_split,
                                                     tmp_path):
        with use_backend("fast"):
            baseline = run_strategy(build(tiny_split), tiny_split,
                                    "tiny", "ComiRec-DR")
            with active(FaultPlan(seed=1).crash_at_span_boundary(1)):
                with pytest.raises(SimulatedCrash):
                    run_strategy(build(tiny_split), tiny_split, "tiny",
                                 "ComiRec-DR", checkpoint_dir=tmp_path)
            resumed = run_strategy(build(tiny_split), tiny_split, "tiny",
                                   "ComiRec-DR", checkpoint_dir=tmp_path,
                                   resume=True)
        assert resumed.resumed_spans == [1]
        assert_metric_identical(resumed, baseline)


class TestStreamUnderFast:
    def test_stream_pipeline_smoke(self, tiny_split, tmp_path):
        with use_backend("fast"):
            strategy = make_strategy(
                "FT", "ComiRec-DR", tiny_split, fast_config(),
                model_kwargs={"dim": 10, "num_interests": 2})
            result = run_stream(strategy, config=None, dataset_name="tiny",
                                model_name="ComiRec-DR",
                                checkpoint_dir=tmp_path / "run")
        assert result.mode == MODE_HEALTHY
        assert result.trained > 0
        for _, param in strategy.model.named_parameters():
            assert param.data.dtype == np.float32
            assert np.isfinite(param.data).all()


# --------------------------------------------------------------------- #
# 3. pool lifecycle
# --------------------------------------------------------------------- #


class TestBufferPool:
    def test_miss_then_hit_reuses_backing_memory(self):
        pool = BufferPool()
        first = pool.acquire((4, 3), np.float32)
        assert pool.stats()["misses"] == 1 and pool.lent == 1
        pool.reclaim()
        assert pool.lent == 0
        second = pool.acquire((6, 2), np.float32)  # same 16-slot bucket
        assert pool.stats()["hits"] == 1
        assert np.shares_memory(first, second)
        assert pool.stats()["bytes_reused"] == 12 * 4

    def test_lent_buffers_are_never_handed_out_twice(self):
        pool = BufferPool()
        a = pool.acquire((8,), np.float64)
        b = pool.acquire((8,), np.float64)
        assert not np.shares_memory(a, b)
        assert pool.lent == 2

    def test_dtypes_do_not_share_buckets(self):
        pool = BufferPool()
        a = pool.acquire((8,), np.float32)
        pool.reclaim()
        b = pool.acquire((8,), np.float64)
        assert not np.shares_memory(a, b)
        assert pool.stats()["hits"] == 0

    def test_oversized_requests_bypass_the_pool(self):
        pool = BufferPool()
        big = pool.acquire((MAX_POOLED_ELEMS + 1,), np.float32)
        assert big.shape == (MAX_POOLED_ELEMS + 1,)
        assert pool.lent == 0  # not tracked, garbage-collected normally
        assert pool.stats()["misses"] == 1

    def test_clear_drops_everything(self):
        pool = BufferPool()
        pool.acquire((4,), np.float32)
        pool.reclaim()
        pool.clear()
        assert pool.stats()["free_buffers"] == 0

    def test_end_step_reclaims_and_counts(self):
        fast = FastBackend(blas_threads=None)
        fast.scratch((5, 5))
        assert fast.pool.lent == 1
        fast.end_step()
        assert fast.pool.lent == 0
        stats = fast.pool_stats()
        assert stats["misses"] == 1

    def test_unpooled_scratch_skips_the_pool(self):
        fast = FastBackend(blas_threads=None)
        buf = fast.scratch((5, 5), pooled=False)
        assert buf.dtype == np.float32
        assert fast.pool.lent == 0


class TestPoolLifecycleInTraining:
    """End-to-end: pooling survives the write-guard sanitizer and no
    pooled buffer aliases anything that outlives the step."""

    def test_training_under_sanitizer(self, tiny_split):
        fast = FastBackend(blas_threads=None)
        with use_backend(fast), sanitize.enforced():
            strategy = build(tiny_split)
            result = run_strategy(strategy, tiny_split, "tiny", "ComiRec-DR")
        assert np.isfinite(result.hr)
        stats = fast.pool_stats()
        assert stats["lent"] == 0  # every step boundary reclaimed
        assert stats["hits"] > 0  # and the pool actually recycled
        # nothing persistent aliases pool memory
        pooled = [flat for stack in fast.pool._free.values()
                  for flat in stack]
        for name, param in strategy.model.named_parameters():
            for flat in pooled:
                assert not np.shares_memory(param.data, flat), name
        for state in strategy.states.values():
            for flat in pooled:
                assert not np.shares_memory(state.interests, flat)

    def test_no_grad_extraction_does_not_grow_the_pool(self):
        fast = FastBackend(blas_threads=None)
        with use_backend(fast):
            model = make_model("ComiRec-DR")
            state = model.init_user_state(0)
            model.snapshot_interests(state, [1, 2, 3, 4])
        assert fast.pool.lent == 0


# --------------------------------------------------------------------- #
# 4. contracts and observability
# --------------------------------------------------------------------- #


@pytest.fixture(params=["default", "fast"])
def a_backend(request):
    if request.param == "fast":
        return FastBackend(blas_threads=None)
    return NumpyBackend()


class TestBackendContracts:
    def test_scatter_add_contract(self, a_backend):
        dt = a_backend.compute_dtype
        out = np.zeros((4, 3), dtype=dt)
        with enforced():
            a_backend.scatter_add(out, np.array([1, 1]),
                                  np.ones((2, 3), dtype=dt))
            assert out[1, 0] == 2.0
            with pytest.raises(ContractViolation):
                a_backend.scatter_add(out, np.array([1]),
                                      np.ones((1, 2), dtype=dt))


class TestObservability:
    def test_trace_carries_backend_telemetry(self, tiny_split, tmp_path):
        with use_backend("fast"):
            run_strategy(build(tiny_split), tiny_split, "tiny",
                         "ComiRec-DR", trace_dir=tmp_path)
        summary = summarize_trace(tmp_path)
        assert summary["backend"]["active"] == "fast"
        pools = summary["backend"]["pools"]
        assert pools["fast"]["hits"] > 0
        assert pools["fast"]["hit_rate"] > 0.5
        assert pools["fast"]["bytes_reused"] > 0
        rendered = render_summary(summary)
        assert "backend:" in rendered
        assert "pool[fast]" in rendered
        # the run span itself is labelled with the backend
        events, _ = read_trace(tmp_path)
        run_spans = [e for e in events if e.get("kind") == "span_start"
                     and e.get("name") == "run"]
        assert run_spans and run_spans[0]["fields"]["backend"] == "fast"

    def test_default_backend_trace_has_gauge_only(self, tiny_split,
                                                  tmp_path):
        run_strategy(build(tiny_split), tiny_split, "tiny", "ComiRec-DR",
                     trace_dir=tmp_path)
        summary = summarize_trace(tmp_path)
        assert summary["backend"]["active"] == "default"
        assert summary["backend"]["pools"] == {}
