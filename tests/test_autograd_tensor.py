"""Unit tests for the Tensor autograd engine (arithmetic + backward)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad
from repro.autograd.tensor import _unbroadcast


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_cuts_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0]) + Tensor([2.0])
        assert out.data[0] == 3.0

    def test_radd_with_scalar(self):
        out = 2.0 + Tensor([1.0])
        assert out.data[0] == 3.0

    def test_sub_and_rsub(self):
        assert (Tensor([5.0]) - 2.0).data[0] == 3.0
        assert (7.0 - Tensor([5.0])).data[0] == 2.0

    def test_mul_div(self):
        assert (Tensor([3.0]) * 4.0).data[0] == 12.0
        assert (Tensor([8.0]) / 2.0).data[0] == 4.0
        assert (2.0 / Tensor([8.0])).data[0] == 0.25

    def test_neg_pow(self):
        assert (-Tensor([2.0])).data[0] == -2.0
        assert (Tensor([3.0]) ** 2).data[0] == 9.0

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).data, b.data)

    def test_broadcasting_add(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones(4))
        assert (a + b).shape == (3, 4)


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.backward()
        assert np.allclose(x.grad, [5.0])  # 2x + 1

    def test_grad_accumulates_over_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        assert np.allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x feeds two paths that rejoin: grads must sum exactly once
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).backward()
        assert np.allclose(x.grad, [7.0])

    def test_reused_node(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        z = y + y
        z.backward()
        assert np.allclose(x.grad, [8.0])  # d(2x^2)/dx = 4x

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3).backward(np.ones((2, 2)))
        assert np.allclose(x.grad, 3 * np.ones((2, 2)))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_deep_chain_does_not_recurse(self):
        # iterative topo sort must handle graphs deeper than the default
        # Python recursion limit
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])

    @pytest.mark.parametrize("reduce", [
        lambda t: t.sum(),
        lambda t: t.sum(axis=0),
        lambda t: t.sum(axis=1, keepdims=True),
        lambda t: t.mean(),
    ], ids=["sum", "sum-axis0", "sum-axis1-keepdims", "mean"])
    def test_leaf_grad_through_a_reduction_is_owned(self, reduce):
        # sum's backward hands on a read-only broadcast view; the leaf
        # must still get an array of its own that callers may scale
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = reduce(x)
        out.backward(np.ones_like(out.data))
        assert x.grad.flags.writeable and x.grad.base is None
        expected = x.grad * 2.0
        x.grad *= 2.0
        np.testing.assert_array_equal(x.grad, expected)


class TestGradientCorrectness:
    """Analytic vs central-difference gradients for every op."""

    @pytest.mark.parametrize("ashape,bshape", [
        ((3, 4), (4, 5)),
        ((4,), (4, 5)),
        ((3, 4), (4,)),
        ((4,), (4,)),
        ((2, 3, 4), (4, 5)),
        ((2, 3, 4), (2, 4, 5)),
    ])
    def test_matmul_grad(self, rng, ashape, bshape):
        a = Tensor(rng.normal(size=ashape), requires_grad=True)
        b = Tensor(rng.normal(size=bshape), requires_grad=True)
        check_gradients(lambda a, b: (a @ b).sum(), [a, b])

    @pytest.mark.parametrize("op", [
        lambda x: (x + x * 2.0).sum(),
        lambda x: (x * x).sum(),
        lambda x: (x / (x * x + 2.0)).sum(),
        lambda x: (x ** 3).sum(),
        lambda x: (-x).sum(),
        lambda x: x.tanh().sum(),
        lambda x: x.sigmoid().sum(),
        lambda x: x.exp().sum(),
        lambda x: x.relu().sum(),
        lambda x: x.abs().sum(),
        lambda x: x.clip(-0.5, 0.5).sum(),
        lambda x: x.mean(),
        lambda x: x.mean(axis=0).sum(),
        lambda x: x.sum(axis=1, keepdims=True).sum(),
        lambda x: x.max(),
        lambda x: x.max(axis=1).sum(),
        lambda x: x.norm(),
        lambda x: x.norm(axis=1).sum(),
        lambda x: x.reshape(-1).sum(),
        lambda x: x.T.sum(axis=0).max(),
        lambda x: x.swapaxes(0, 1).norm(),
        lambda x: x.expand_dims(0).squeeze(0).sum(),
        lambda x: x[1:, :2].sum(),
    ])
    def test_unary_grads(self, rng, op):
        # offset from 0 and clip boundaries to keep ops differentiable
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        check_gradients(op, [x])

    def test_log_grad(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: x.log().sum(), [x])

    def test_broadcast_grads(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda a, b, c: ((a + b) * c).sum(), [a, b, c])

    def test_gather_rows_grad_with_duplicates(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        check_gradients(lambda t: t.gather_rows(idx).sum(axis=1).max(), [table])

    def test_gather_rows_duplicate_accumulation(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = table.gather_rows(np.array([1, 1, 1]))
        out.sum().backward()
        assert np.allclose(table.grad[1], [3.0, 3.0])
        assert np.allclose(table.grad[0], [0.0, 0.0])


class TestUnbroadcast:
    def test_no_op_when_shapes_match(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sums_leading_dims(self):
        g = np.ones((5, 2, 3))
        assert _unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.allclose(_unbroadcast(g, (2, 3)), 5.0)

    def test_sums_size_one_dims(self):
        g = np.ones((2, 3))
        out = _unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.allclose(out, 2.0)

    def test_scalar_target(self):
        g = np.ones((4, 4))
        assert _unbroadcast(g, ()).shape == ()
        assert float(_unbroadcast(g, ())) == 16.0
