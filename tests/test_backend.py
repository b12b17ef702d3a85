"""The pluggable compute backend (:mod:`repro.backend`).

Three families of guarantees:

1. **Selection** — backend names (case-insensitive), scoped switching,
   the ``REPRO_BACKEND`` environment hook, and dtype threading into
   Tensors.
2. **Equivalence** — at float64 the model kernels agree with the
   op-by-op reference graphs of ``tests/reference_graphs.py`` to 1e-12,
   per user and for a padded group; the fast float32 backend stays
   within documented drift tolerances; and a crash/resumed fast run is
   metric-identical to its uninterrupted twin.
3. **Observability** — traces name the active backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import backend
from repro.autograd import Tensor
from repro.backend import active_backend_name, set_backend, use_backend
from repro.data import WorldConfig, generate_world, split_time_spans
from repro.eval import evaluate_span
from repro.experiments import make_strategy, run_strategy
from repro.faults import FaultPlan, SimulatedCrash, active
from repro.incremental import TrainConfig
from repro.models import (
    MIND,
    ComiRecDR,
    ComiRecSA,
    b2i_routing,
    batched_compute_interests,
    batched_loss_targets,
)
from repro.obs import read_trace, render_summary, summarize_trace
from repro.stream import MODE_HEALTHY, run_stream
from tests.reference_graphs import (
    reference_interests,
    reference_loss,
    routing_graph,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
MODEL_CLASSES = {"MIND": MIND, "ComiRec-DR": ComiRecDR, "ComiRec-SA": ComiRecSA}
FAMILIES = sorted(MODEL_CLASSES)
#: the three paper models plus ComiRec-DR's capsule-normalised ablation
KERNEL_CASES = [pytest.param(name, {}, id=name) for name in FAMILIES] + [
    pytest.param("ComiRec-DR", {"routing_normalize": "capsules"},
                 id="ComiRec-DR-capsules")]

#: documented float32 drift tolerances (see docs/PERFORMANCE.md):
#: per-step loss agrees to ~1e-3 relative; end-of-run ranking metrics on
#: the tiny world stay within 0.1 absolute of the float64 run.
F32_LOSS_RTOL = 1e-3
F32_GRAD_RTOL = 5e-2
F32_METRIC_ATOL = 0.1
#: a 96-user, 800-item world for the batched fast-backend drift bound
DRIFT_WORLD = WorldConfig(
    num_users=96, num_items=800, num_topics=12,
    init_topics_per_user=(2, 4), new_topic_rate=0.6, num_spans=3,
    pretrain_events_per_user=(24, 40), span_events_per_user=(10, 16),
    initial_catalog_fraction=0.8, span_activity=0.95, seed=13,
)


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


def per_user_loss(model, state, seq, seed=0, reference=False):
    """compute_interests -> loss_targets -> backward, through the kernels
    or (``reference=True``) the op-by-op reference graphs; returns the
    interests and the loss."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, model.num_items, size=3).tolist()
    negatives = rng.integers(0, model.num_items, size=(3, 4))
    if reference:
        interests = reference_interests(model, state, seq)
        loss = reference_loss(model, interests, targets, negatives)
    else:
        interests = model.compute_interests(state, seq)
        loss = model.loss_targets(interests, targets, negatives)
    loss.backward()
    return interests, loss


def grad_snapshot(model, states=()):
    """Every parameter gradient: the model's, and SA users' ``W_u``."""
    grads = {name: param.grad.copy()
             for name, param in model.named_parameters()
             if param.grad is not None}
    for state in states:
        if state.sa_weights is not None:
            grads[f"W_u[{state.user}]"] = state.sa_weights.grad.copy()
    return grads


def assert_grads_equal(got, want, atol):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol,
                                   err_msg=key)


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
        assert active_backend_name() == "default"
        assert backend.compute_dtype == np.float64

    @pytest.mark.parametrize("alias,name", [
        ("default", "default"), ("fast", "fast"), ("FAST", "fast"),
    ])
    def test_aliases(self, alias, name):
        """Backend names resolve case-insensitively."""
        with use_backend(alias) as active_name:
            assert active_name == name == active_backend_name()

    def test_set_backend_returns_previous(self):
        previous = set_backend("fast")
        try:
            assert previous == "default"
            assert active_backend_name() == "fast"
            assert backend.compute_dtype == np.float32
        finally:
            set_backend(previous)
        assert active_backend_name() == "default"
        assert backend.compute_dtype == np.float64

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert active_backend_name() == "default"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cuda")

    def test_env_selection(self):
        for name in ("default", "fast"):
            env = dict(os.environ, REPRO_BACKEND=name,
                       PYTHONPATH=str(REPO_ROOT / "src"))
            out = subprocess.run(
                [sys.executable, "-c",
                 "import repro.backend as b; print(b.active_backend_name())"],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT)
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == name

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


def drift_world_span1(users_per_batch):
    """IMSR x ComiRec-DR on ``DRIFT_WORLD``: pretrain one epoch, then
    evaluate span 1 on every item."""
    world = generate_world(DRIFT_WORLD)
    split = split_time_spans(world.interactions,
                             num_items=DRIFT_WORLD.num_items,
                             T=DRIFT_WORLD.num_spans, alpha=0.5)
    config = TrainConfig(epochs_pretrain=1, epochs_incremental=1,
                         num_negatives=10, seed=0,
                         users_per_batch=users_per_batch,
                         batched_snapshots=users_per_batch > 1)
    strategy = make_strategy("IMSR", "ComiRec-DR", split, config,
                             model_kwargs={"dim": 32, "num_interests": 4})
    strategy.pretrain()
    return evaluate_span(strategy.score_users, split.spans[1], targets="all")


class TestFusedMatchesUnfusedF64:
    """At float64 the kernels (the one implementation in ``src/``)
    reproduce the op-by-op reference graphs to 1e-12: interests, losses
    and every parameter gradient, per user and for a padded group."""

    @pytest.mark.parametrize("normalize", ["items", "capsules"])
    @pytest.mark.parametrize("with_logits", [False, True],
                             ids=["zero-logits", "mind-logits"])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_routing(self, normalize, with_logits, iterations):
        rng = np.random.default_rng(11)
        e_np = rng.normal(size=(7, 5))
        init = rng.normal(size=(3, 5))
        logits = rng.normal(size=(7, 3)) if with_logits else None
        upstream = Tensor(rng.normal(size=(3, 5)))
        outs = []
        for route in (b2i_routing, routing_graph):
            e_hat = Tensor(e_np.copy(), requires_grad=True)
            out = route(e_hat, init, iterations, logits, normalize)
            (out * upstream).sum().backward()
            outs.append((out.data, e_hat.grad))
        (kernel, kernel_grad), (graph, graph_grad) = outs
        np.testing.assert_allclose(kernel, graph, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel_grad, graph_grad, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("name,kwargs", KERNEL_CASES)
    def test_per_user_interests_and_grads(self, name, kwargs):
        kernel, graph = make_model(name, **kwargs), make_model(name, **kwargs)
        jobs_k, jobs_g = make_jobs(kernel), make_jobs(graph)
        for (state_k, seq), (state_g, _) in zip(jobs_k, jobs_g):
            interests_k, loss_k = per_user_loss(kernel, state_k, seq)
            interests_g, loss_g = per_user_loss(graph, state_g, seq,
                                                reference=True)
            np.testing.assert_allclose(interests_k.data, interests_g.data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(loss_k.data, loss_g.data,
                                       rtol=0, atol=1e-12)
            assert_grads_equal(grad_snapshot(kernel, [state_k]),
                               grad_snapshot(graph, [state_g]), atol=1e-12)
            kernel.zero_grad()
            graph.zero_grad()

    @pytest.mark.parametrize("name,kwargs", KERNEL_CASES)
    def test_batched_training_path(self, name, kwargs):
        """One padded group (mixed sequence lengths, K_u and target
        counts) through the batched kernels against the sum of each
        user's reference graph."""
        kernel, graph = make_model(name, **kwargs), make_model(name, **kwargs)
        jobs_k, jobs_g = make_jobs(kernel), make_jobs(graph)
        rng = np.random.default_rng(7)
        targets = [rng.integers(0, 80, size=int(rng.integers(1, 4))).tolist()
                   for _ in jobs_k]
        negatives = [rng.integers(0, 80, size=(len(t), 4)) for t in targets]

        interests, capsule_mask, ks = batched_compute_interests(kernel, jobs_k)
        loss_k = batched_loss_targets(kernel, interests, capsule_mask,
                                      targets, negatives)
        loss_k.backward()
        loss_g = 0.0
        for b, (state, seq) in enumerate(jobs_g):
            user_interests = reference_interests(graph, state, seq)
            np.testing.assert_allclose(interests.data[b, :ks[b]],
                                       user_interests.data, rtol=0,
                                       atol=1e-12)
            loss = reference_loss(graph, user_interests, targets[b],
                                  negatives[b])
            loss.backward()
            loss_g += float(loss.data)
        np.testing.assert_allclose(loss_k.data, loss_g, rtol=0, atol=1e-12)
        assert_grads_equal(grad_snapshot(kernel, [s for s, _ in jobs_k]),
                           grad_snapshot(graph, [s for s, _ in jobs_g]),
                           atol=1e-12)


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
            _, loss_e = per_user_loss(exact, state_e, seq)
            with use_backend("fast"):
                _, loss_f = per_user_loss(fast, state_f, seq)
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

    def test_batched_fast_drift_on_a_larger_world(self):
        """The fast batched engine (float32, groups of 8) against the
        default per-user run: one pretraining epoch each, span 1
        evaluated on every item."""
        reference = drift_world_span1(1)
        with use_backend("fast"):
            fast = drift_world_span1(8)
        assert abs(fast.hr - reference.hr) <= F32_METRIC_ATOL
        assert abs(fast.ndcg - reference.ndcg) <= F32_METRIC_ATOL

    def test_batched_fast_matches_batched_default(self):
        """Like with like: fast against default, both in groups of 8
        with batched snapshots and the same seed.  What remains is the
        float32 share of the drift above, bounded at a tenth of it."""
        reference = drift_world_span1(8)
        with use_backend("fast"):
            fast = drift_world_span1(8)
        assert abs(fast.hr - reference.hr) <= F32_METRIC_ATOL / 10
        assert abs(fast.ndcg - reference.ndcg) <= F32_METRIC_ATOL / 10


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
# 3. observability
# --------------------------------------------------------------------- #


class TestObservability:
    def test_trace_carries_backend_telemetry(self, tiny_split, tmp_path):
        with use_backend("fast"):
            run_strategy(build(tiny_split), tiny_split, "tiny",
                         "ComiRec-DR", trace_dir=tmp_path)
        summary = summarize_trace(tmp_path)
        assert summary["backend"] == {"active": "fast"}
        rendered = render_summary(summary)
        assert "backend:" in rendered
        assert "active         fast" in rendered
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
        assert summary["backend"] == {"active": "default"}
