"""Unit tests for functional ops (softmax, squash, losses) and their grads."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, concat, stack, where
from repro.autograd import ops
from repro.backend import use_backend


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        out = ops.softmax(x, axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_invariant_to_constant_shift(self, rng):
        x = rng.normal(size=(3, 4))
        a = ops.softmax(Tensor(x), axis=1).data
        b = ops.softmax(Tensor(x + 100.0), axis=1).data
        assert np.allclose(a, b)

    def test_stable_for_large_logits(self):
        out = ops.softmax(Tensor([1000.0, 0.0]), axis=0).data
        assert np.isfinite(out).all()
        assert out[0] > 0.999

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        assert np.allclose(
            ops.log_softmax(x, axis=1).data,
            np.log(ops.softmax(x, axis=1).data),
        )

    def test_softmax_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: ops.softmax(x, axis=1)[:, 0].sum(), [x])

    def test_log_softmax_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: ops.log_softmax(x, axis=0).mean(), [x])


class TestSquash:
    def test_preserves_direction(self, rng):
        x = rng.normal(size=(4, 6))
        out = ops.squash(Tensor(x)).data
        for row_in, row_out in zip(x, out):
            cos = row_in @ row_out / (
                np.linalg.norm(row_in) * np.linalg.norm(row_out)
            )
            assert cos > 0.999

    def test_norm_below_one(self, rng):
        x = rng.normal(size=(8, 5)) * 10
        norms = np.linalg.norm(ops.squash(Tensor(x)).data, axis=1)
        assert (norms < 1.0).all()

    def test_small_vectors_shrink_quadratically(self):
        x = np.array([[1e-3, 0.0]])
        out = ops.squash(Tensor(x)).data
        # |squash(v)| ~ |v|^2 / (1+|v|^2) * 1 -> tiny
        assert np.linalg.norm(out) < 1e-5

    def test_zero_vector_is_safe(self):
        out = ops.squash(Tensor(np.zeros((1, 4)))).data
        assert np.isfinite(out).all()
        assert np.allclose(out, 0.0)

    def test_squash_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: ops.squash(x).norm(), [x])

    def test_monotone_in_magnitude(self):
        v = np.array([1.0, 0.0])
        small = np.linalg.norm(ops.squash(Tensor(0.5 * v[None])).data)
        large = np.linalg.norm(ops.squash(Tensor(2.0 * v[None])).data)
        assert large > small


class TestLosses:
    def test_bce_zero_when_equal(self, rng):
        p = Tensor(rng.uniform(0.1, 0.9, size=(4,)))
        assert ops.binary_cross_entropy(p, p).item() == pytest.approx(
            float(-(p.data * np.log(p.data)
                    + (1 - p.data) * np.log(1 - p.data)).mean())
        )

    def test_bce_minimized_at_target(self):
        target = Tensor([0.7])
        at_target = ops.binary_cross_entropy(Tensor([0.7]), target).item()
        away = ops.binary_cross_entropy(Tensor([0.2]), target).item()
        assert at_target < away

    def test_bce_grad(self, rng):
        logits = Tensor(rng.normal(size=(5,)), requires_grad=True)
        target = Tensor(rng.uniform(0.2, 0.8, size=(5,)))
        check_gradients(
            lambda l: ops.binary_cross_entropy(l.sigmoid(), target), [logits])

    def test_bce_finite_over_saturated_float32_sigmoid(self):
        # float32 rounds 1 - 1e-9 to 1.0 and sigmoid(40) to exactly 1.0,
        # so a clip bound below the dtype's epsilon reaches log(0)
        with use_backend("fast"):
            logits = Tensor([40.0, -40.0, 20.0], requires_grad=True)
            target = Tensor([0.5, 0.5, 1.0])
            loss = ops.binary_cross_entropy(logits.sigmoid(), target)
            loss.backward()
        assert loss.data.dtype == np.float32
        assert np.isfinite(loss.data)
        assert np.isfinite(logits.grad).all()

    def test_soft_ce_minimized_when_matching(self, rng):
        logits = rng.normal(size=(3, 4))
        targets = ops.softmax(Tensor(logits), axis=1)
        matched = ops.cross_entropy_with_soft_targets(Tensor(logits), targets)
        other = ops.cross_entropy_with_soft_targets(
            Tensor(rng.normal(size=(3, 4)) * 3), targets)
        assert matched.item() < other.item()

    def test_soft_ce_grad(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = Tensor(np.full((3, 4), 0.25))
        check_gradients(
            lambda l: ops.cross_entropy_with_soft_targets(l, targets), [logits])

    def test_mse_zero_iff_equal(self, rng):
        a = Tensor(rng.normal(size=(3, 3)))
        assert ops.mse(a, a).item() == 0.0
        b = Tensor(a.data + 1.0)
        assert ops.mse(a, b).item() == pytest.approx(1.0)


class TestStructuralOps:
    def test_concat_forward(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        out = concat([Tensor(a), Tensor(b)], axis=0)
        assert np.allclose(out.data, np.concatenate([a, b], axis=0))

    def test_concat_grad_splits_correctly(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda a, b: (concat([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1(self, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check_gradients(lambda a, b: concat([a, b], axis=1).norm(), [a, b])

    def test_stack_forward_and_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_where_selects(self):
        cond = np.array([True, False, True])
        out = where(cond, Tensor([1.0, 1.0, 1.0]), Tensor([9.0, 9.0, 9.0]))
        assert np.allclose(out.data, [1.0, 9.0, 1.0])

    def test_where_grad_masks(self, rng):
        cond = np.array([True, False, True, False])
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, cond.astype(float))
        assert np.allclose(b.grad, (~cond).astype(float))
