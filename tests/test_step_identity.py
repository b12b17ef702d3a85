"""Bit-identity of the allocation-free training step.

Two parts of every training step avoid table-sized temporaries:

* ``Adam._dense_update`` writes into its moments and reused work
  buffers instead of building new arrays;
* ``Tensor.backward`` keeps each ``gather_rows`` gradient as its
  ``(indices, updates)`` and sums a node's contributions once, scattering
  the first lookup into a zeroed table and adding later lookups' per-row
  segment sums to the rows they touched.

Both must give exactly the bits of the formulas they replaced.  Those
formulas are kept here as reference implementations: out-of-place Adam,
and the engine that turned every lookup into its own ``zeros`` +
``scatter_add`` table and summed contributions eagerly left to right.
Comparisons are on raw bytes, so a ``-0.0`` that became ``+0.0`` fails.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np
import pytest

import repro.backend as backend
from repro.autograd import Tensor
from repro.autograd.tensor import _RowGrad
from repro.models import ComiRecDR, ComiRecSA
from repro.nn import Adam, Parameter, clip_grad_norm


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------- #
# Adam
# ---------------------------------------------------------------------- #
class ReferenceAdam:
    """Adam as the out-of-place formula computed it, one new array per
    operation, with zero-padded moments for row-grown tables."""

    def __init__(self, params: List[Parameter], lr: float, betas: tuple,
                 eps: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.steps = [0 for _ in self.params]

    def add_param(self, param: Parameter) -> None:
        self.params.append(param)
        self.m.append(np.zeros_like(param.data))
        self.v.append(np.zeros_like(param.data))
        self.steps.append(0)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if self.m[i].shape != p.data.shape:
                extra = p.data.shape[0] - self.m[i].shape[0]
                pad = np.zeros((extra,) + self.m[i].shape[1:],
                               dtype=self.m[i].dtype)
                self.m[i] = np.concatenate([self.m[i], pad], axis=0)
                self.v[i] = np.concatenate([self.v[i], pad], axis=0)
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self.steps[i] += 1
            t = self.steps[i]
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad * grad
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def grad_like(rng: np.random.Generator, data: np.ndarray) -> np.ndarray:
    """A gradient with the values that stress rounding: wide magnitudes,
    exact zeros of both signs, and untouched (all-zero) rows."""
    grad = rng.standard_normal(data.shape) * \
        10.0 ** rng.integers(-6, 3, size=data.shape)
    grad[rng.random(data.shape) < 0.1] = 0.0
    grad[rng.random(data.shape) < 0.1] = -0.0
    if data.ndim == 2 and data.shape[0] > 2:
        grad[rng.choice(data.shape[0], data.shape[0] // 3, replace=False)] = 0
    return grad.astype(data.dtype)


class TestInPlaceAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_out_of_place_adam_over_many_steps(self, dtype,
                                                       weight_decay):
        rng = np.random.default_rng(11)

        def make_params() -> Dict[str, Parameter]:
            init = np.random.default_rng(5)
            table = Parameter(init.normal(size=(10, 4)))
            table.row_sparse = True
            params = {
                "table": table,
                # two parameters of one shape share the work buffers
                "dense_a": Parameter(init.normal(size=(4, 3))),
                "dense_b": Parameter(init.normal(size=(4, 3))),
                "bias": Parameter(init.normal(size=(3,))),
            }
            for p in params.values():
                p.data = p.data.astype(dtype)
            return params

        ours, theirs = make_params(), make_params()
        hyper = dict(lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                     weight_decay=weight_decay)
        opt = Adam(list(ours.values()), **hyper)
        ref = ReferenceAdam(list(theirs.values()), **hyper)
        for step in range(40):
            if step == 9:
                # the table grows in place (mid-stream cold start)
                grown = np.random.default_rng(step).normal(size=(3, 4))
                for params in (ours, theirs):
                    table = params["table"]
                    table.data = np.concatenate(
                        [table.data, grown.astype(dtype)], axis=0)
            if step == 15:
                # a parameter created mid-training (IMSR expands SA weights)
                for params, optim in ((ours, opt), (theirs, ref)):
                    params["late"] = Parameter(
                        np.random.default_rng(1).normal(size=(4, 3))
                        .astype(dtype))
                    optim.add_param(params["late"])
            for name in ours:
                if name == "bias" and step % 4 == 0:
                    ours[name].grad = theirs[name].grad = None  # skipped
                    continue
                grad = grad_like(rng, ours[name].data)
                ours[name].grad = grad
                theirs[name].grad = grad.copy()
            opt.step()
            ref.step()
            for name in ours:
                assert same_bits(ours[name].data, theirs[name].data), \
                    f"step {step}: {name} diverged"
        for i in range(len(ref.params)):
            assert same_bits(opt._m[i], ref.m[i])
            assert same_bits(opt._v[i], ref.v[i])
            assert opt._steps[i] == ref.steps[i]

    def test_growth_drops_the_old_shapes_work_buffers(self):
        table = Parameter(np.ones((6, 2)))
        table.row_sparse = True
        opt = Adam([table], lr=0.1)
        table.grad = np.ones((6, 2))
        opt.step()
        assert list(opt._scratch) == [((6, 2), np.dtype(np.float64))]
        table.data = np.concatenate([table.data, np.ones((2, 2))])
        table.grad = np.ones((8, 2))
        opt.step()
        assert list(opt._scratch) == [((8, 2), np.dtype(np.float64))]


# ---------------------------------------------------------------------- #
# backward
# ---------------------------------------------------------------------- #
def reference_backward(root: Tensor, grad=None) -> None:
    """The engine before deferred row sums: each ``gather_rows`` lookup
    becomes its own ``zeros_like(table)`` + ``scatter_add`` table, and a
    node's contributions are summed eagerly, left to right in visit
    order; a leaf copies what it receives."""
    if grad is None:
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype).reshape(root.data.shape)
    topo: List[Tensor] = []
    visited = set()
    stack = [(root, iter(root._parents))]
    on_stack = {id(root)}
    while stack:
        current, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited and id(parent) not in on_stack:
                stack.append((parent, iter(parent._parents)))
                on_stack.add(id(parent))
                advanced = True
                break
        if not advanced:
            stack.pop()
            on_stack.discard(id(current))
            if id(current) not in visited:
                visited.add(id(current))
                topo.append(current)
    grads = {id(root): grad}
    for node in reversed(topo):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if not node._backward_fns:
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                node.grad = node.grad + node_grad
            continue
        for parent, fn in node._backward_fns:
            contrib = fn(node_grad)
            if isinstance(contrib, _RowGrad):
                table = np.zeros_like(parent.data)
                backend.active.scatter_add(table, contrib.indices,
                                           contrib.updates)
                contrib = table
            key = id(parent)
            grads[key] = grads[key] + contrib if key in grads else contrib


def coef(rng: np.random.Generator, shape) -> Tensor:
    """A constant factor holding signed zeros among ordinary values."""
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.15] = -0.0
    values[rng.random(shape) < 0.15] = 0.0
    return Tensor(values)


def lookups_with_repeats(w: Tensor, rng) -> Tensor:
    d = w.shape[1]
    a = (w.gather_rows(np.array([1, 1, 3, 7, 1])) * coef(rng, (5, d))).sum()
    b = (w.gather_rows(np.array([3, 5, 1, 1, 3])) * coef(rng, (5, d))).sum()
    c = (w.gather_rows(np.array([[1, 2], [2, 7], [1, 1]]))
         * coef(rng, (3, 2, d))).sum()
    return a + b * 0.5 + c


def dense_first(w: Tensor, rng) -> Tensor:
    # the dense term holds -0.0 on rows no lookup touches
    return (w * coef(rng, w.shape)).sum() + lookups_with_repeats(w, rng)


def dense_last(w: Tensor, rng) -> Tensor:
    return lookups_with_repeats(w, rng) + (w * coef(rng, w.shape)).sum()


def dense_between(w: Tensor, rng) -> Tensor:
    d = w.shape[1]
    first = (w.gather_rows(np.array([0, 4, 4])) * coef(rng, (3, d))).sum()
    dense = (w * w * coef(rng, w.shape)).sum()
    last = (w.gather_rows(np.array([4, 9, 0])) * coef(rng, (3, d))).sum()
    return first + dense + last


def through_a_non_leaf(w: Tensor, rng) -> Tensor:
    scaled = w * coef(rng, w.shape)
    return (scaled.gather_rows(np.array([2, 2, 6])) ** 2).sum() + \
        (scaled.gather_rows(np.array([6, 1])) * coef(rng, (2, w.shape[1]))).sum()


GRAPHS: Dict[str, Callable[[Tensor, np.random.Generator], Tensor]] = {
    "lookups_with_repeats": lookups_with_repeats,
    "dense_first": dense_first,
    "dense_last": dense_last,
    "dense_between": dense_between,
    "through_a_non_leaf": through_a_non_leaf,
}

#: (backend, table rows): a small and a large table (d = 8) on each
#: backend; both scatter with np.add.at, in float64 and float32
BACKEND_CASES = [("default", 12), ("default", 5000), ("fast", 12),
                 ("fast", 5000)]


def run_both(rows: int, build: Callable, backwards: int = 1):
    """Leaf gradients of ``build`` under the engine and the reference."""
    out = []
    for engine in ("engine", "reference"):
        w = Tensor(np.random.default_rng(3).normal(size=(rows, 8)),
                   requires_grad=True)
        rng = np.random.default_rng(4)
        for _ in range(backwards):
            loss = build(w, rng)
            if engine == "engine":
                loss.backward()
            else:
                reference_backward(loss)
        out.append(w.grad)
    return out


class TestDeferredRowSums:
    @pytest.mark.parametrize("backend_name,rows", BACKEND_CASES)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_leaf_grads_match_per_lookup_tables(self, backend_name, rows,
                                                graph):
        with backend.use_backend(backend_name):
            ours, theirs = run_both(rows, GRAPHS[graph])
        assert same_bits(ours, theirs)

    @pytest.mark.parametrize("backend_name,rows", BACKEND_CASES)
    def test_second_backward_without_zero_grad(self, backend_name, rows):
        with backend.use_backend(backend_name):
            ours, theirs = run_both(rows, dense_between, backwards=2)
        assert same_bits(ours, theirs)

    @pytest.mark.parametrize("model_cls,backend_name",
                             [(ComiRecDR, "default"), (ComiRecSA, "default"),
                              (ComiRecDR, "fast"), (ComiRecSA, "fast")])
    def test_model_training_step(self, model_cls, backend_name):
        """One real per-user step: history, target and negative lookups
        into the item table plus the model's dense parameters."""
        grads = []
        with backend.use_backend(backend_name):
            for engine in ("engine", "reference"):
                model = model_cls(300, dim=8, num_interests=3, seed=1)
                state = model.init_user_state(0)
                rng = np.random.default_rng(6)
                history = rng.integers(1, 300, size=12)
                targets = [int(history[3]), 17, 17]
                negatives = rng.integers(1, 300, size=(3, 5))
                interests = model.compute_interests(state, history)
                loss = model.loss_targets(interests, targets, negatives)
                if engine == "engine":
                    loss.backward()
                else:
                    reference_backward(loss)
                params = list(model.parameters())
                if state.sa_weights is not None:
                    params.append(state.sa_weights)
                grads.append([p.grad for p in params])
        for ours, theirs in zip(*grads):
            assert same_bits(ours, theirs)


class TestGradientOwnership:
    def test_scaling_a_built_grad_in_place_changes_nothing_else(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        rows = w.gather_rows(np.array([2, 5, 2]))
        out = rows * x + w.gather_rows(np.array([5, 7, 7]))
        upstream = rng.normal(size=out.shape)
        upstream_before = upstream.copy()
        out.backward(upstream)
        x_grad = x.grad.copy()
        # clip_grad_norm scales a row-sparse gradient's touched rows in place
        w.grad[[2, 5, 7]] *= 0.25  # the mutation under test
        assert same_bits(x.grad, x_grad)
        assert same_bits(upstream, upstream_before)
        assert not np.shares_memory(w.grad, x.grad)

    def test_a_received_grad_is_still_copied(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        upstream = np.arange(6.0)
        a.reshape(6).backward(upstream)
        a.grad *= 2.0  # the mutation under test
        assert same_bits(upstream, np.arange(6.0))

    def test_clip_after_backward_matches_clip_on_reference_grads(self):
        results = []
        for engine in ("engine", "reference"):
            table = Parameter(np.random.default_rng(9).normal(size=(20, 4)))
            table.row_sparse = True
            table._touched_rows = []  # armed, as SparseAdam arms it
            dense = Parameter(np.random.default_rng(10).normal(size=(4, 4)))
            idx = np.array([3, 3, 11, 0])
            table._touched_rows.append(idx)
            loss = ((table.gather_rows(idx) @ dense) ** 2).sum() * 40.0
            if engine == "engine":
                loss.backward()
            else:
                reference_backward(loss)
            norm = clip_grad_norm([table, dense], max_norm=1.0)
            results.append((norm, table.grad, dense.grad))
        (n1, t1, d1), (n2, t2, d2) = results
        assert n1 == n2 and n1 > 1.0
        assert same_bits(t1, t2) and same_bits(d1, d2)


# ---------------------------------------------------------------------- #
# the strategy's optimizer step
# ---------------------------------------------------------------------- #
class TestStrategyStep:
    def test_step_is_the_documented_sequence_and_nothing_else(
            self, tiny_split):
        """``_step`` is ``zero_grad`` -> ``backward`` -> ``clip_grad_norm``
        -> ``step`` -> padding-row reset; done by hand on an identical
        strategy, the same sequence must leave the same bits."""
        from repro.experiments import make_strategy
        from repro.incremental import TrainConfig, build_payloads

        config = TrainConfig(epochs_pretrain=1, num_negatives=4, seed=0,
                             grad_clip=0.5)
        results = []
        for by_hand in (False, True):
            strategy = make_strategy(
                "FT", "ComiRec-DR", tiny_split, config,
                model_kwargs={"dim": 8, "num_interests": 2})
            payloads = build_payloads(tiny_split.pretrain, config)
            opt = strategy._optimizer(payloads)
            for payload in payloads[:3]:
                state = strategy.states[payload.user]
                interests = strategy.model.compute_interests(
                    state, payload.history)
                negatives = np.stack(
                    [strategy.sampler.sample(t) for t in payload.targets])
                loss = strategy.model.loss_targets(
                    interests, payload.targets, negatives)
                if by_hand:
                    opt.zero_grad()
                    loss.backward()
                    clip_grad_norm(opt.params, config.grad_clip)
                    opt.step()
                    strategy.model.item_emb.zero_padding_row()
                else:
                    assert strategy._step(loss, opt, payload.user)
            results.append([p.data for p in strategy.model.parameters()])
        for ours, theirs in zip(*results):
            assert same_bits(ours, theirs)

    @pytest.mark.parametrize("group", [1, 2])
    def test_a_step_stores_the_interests_it_extracted(self, tiny_split,
                                                      group):
        """The snapshot a step leaves is the forward it trained on, per
        user and per micro-batch."""
        from repro.autograd import no_grad
        from repro.experiments import make_strategy
        from repro.incremental import TrainConfig, build_payloads
        from repro.models import batched_compute_interests

        config = TrainConfig(num_negatives=4, seed=0)
        strategy = make_strategy("FT", "ComiRec-DR", tiny_split, config,
                                 model_kwargs={"dim": 8, "num_interests": 2})
        payloads = build_payloads(tiny_split.pretrain, config)[:group]
        jobs = [(strategy.states[p.user], p.history) for p in payloads]
        with no_grad():
            extracted, _, ks = batched_compute_interests(strategy.model, jobs)
        opt = strategy._optimizer(payloads)
        if group == 1:
            assert strategy._train_user(payloads[0], 0, opt)
        else:
            strategy._train_group(payloads, 0, opt)
        for b, (state, _) in enumerate(jobs):
            np.testing.assert_allclose(state.interests,
                                       extracted.data[b, :ks[b]], atol=1e-9)
