"""Unit tests for the nn layer: Module, layers, initializers, optimizers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Adam, Embedding, Linear, Module, Parameter, SGD, clip_grad_norm, init


class Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh()) * self.scale


class TestModule:
    def test_parameter_registration(self, rng):
        net = Net(rng)
        names = [n for n, _ in net.named_parameters()]
        assert names == ["scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_state_dict_roundtrip(self, rng):
        net = Net(rng)
        state = net.state_dict()
        for p in net.parameters():
            p.data += 1.0
        net.load_state_dict(state)
        for name, p in net.named_parameters():
            assert np.allclose(p.data, state[name])

    def test_state_dict_copies(self, rng):
        net = Net(rng)
        state = net.state_dict()
        state["scale"][0] = 99.0
        assert net.scale.data[0] != 99.0

    def test_load_strict_rejects_missing(self, rng):
        net = Net(rng)
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_strict_rejects_shape_mismatch(self, rng):
        net = Net(rng)
        state = net.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_non_strict_skips_mismatch(self, rng):
        net = Net(rng)
        state = net.state_dict()
        state["scale"] = np.ones(3)
        state["extra"] = np.ones(2)
        net.load_state_dict(state, strict=False)  # no error

    def test_zero_grad(self, rng):
        net = Net(rng)
        out = net(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(5, 3, rng)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 5))))
        assert np.allclose(out.data, 0.0)

    def test_matches_manual_affine(self, rng):
        layer = Linear(4, 2, rng)
        x = rng.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb([1, 3, 1])
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[2])

    def test_padding_row_zero(self, rng):
        emb = Embedding(10, 4, rng, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)
        emb.weight.data[0] = 1.0
        emb.zero_padding_row()
        assert np.allclose(emb.weight.data[0], 0.0)

    def test_sparse_gradient(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb([2, 2, 7])
        out.sum().backward()
        grad = emb.weight.grad
        assert np.allclose(grad[2], 2.0)  # appears twice
        assert np.allclose(grad[7], 1.0)
        assert np.allclose(grad[0], 0.0)


class TestInit:
    def test_xavier_uniform_bounds(self, rng):
        w = init.xavier_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= limit

    def test_normal_std(self, rng):
        w = init.normal((1000,), rng, std=0.5)
        assert w.std() == pytest.approx(0.5, rel=0.2)

    def test_zeros(self):
        assert np.allclose(init.zeros((3, 3)), 0.0)

    def test_deterministic_given_seed(self):
        a = init.xavier_uniform((4, 4), np.random.default_rng(3))
        b = init.xavier_uniform((4, 4), np.random.default_rng(3))
        assert np.allclose(a, b)


def _quadratic_loss(param: Parameter) -> Tensor:
    target = Tensor(np.array([1.0, -2.0, 3.0]))
    diff = param - target
    return (diff * diff).sum()


class TestOptimizers:
    @pytest.mark.parametrize("opt_cls,kwargs", [
        (SGD, {"lr": 0.1}),
        (SGD, {"lr": 0.05, "momentum": 0.9}),
        (Adam, {"lr": 0.2}),
    ])
    def test_converges_on_quadratic(self, opt_cls, kwargs):
        param = Parameter(np.zeros(3))
        opt = opt_cls([param], **kwargs)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_loss(param).backward()
            opt.step()
        assert np.allclose(param.data, [1.0, -2.0, 3.0], atol=1e-2)

    def test_empty_param_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = SGD([a, b], lr=0.5)
        (a.sum()).backward()
        opt.step()
        assert not np.allclose(a.data, 1.0)
        assert np.allclose(b.data, 1.0)

    def test_adam_add_param_mid_training(self):
        a = Parameter(np.zeros(3))
        opt = Adam([a], lr=0.3)
        for _ in range(20):
            opt.zero_grad()
            _quadratic_loss(a).backward()
            opt.step()
        b = Parameter(np.zeros(3))
        opt.add_param(b)
        for _ in range(150):
            opt.zero_grad()
            (_quadratic_loss(a) + _quadratic_loss(b)).backward()
            opt.step()
        assert np.allclose(b.data, [1.0, -2.0, 3.0], atol=5e-2)

    def test_weight_decay_shrinks(self):
        param = Parameter(np.ones(4) * 10)
        opt = SGD([param], lr=0.1, weight_decay=1.0)
        param.grad = np.zeros(4)  # pure decay step
        opt.step()
        assert np.allclose(param.data, 9.0)

    def test_clip_grad_norm(self):
        a = Parameter(np.zeros(3))
        a.grad = np.array([3.0, 4.0, 0.0])  # norm 5
        pre = clip_grad_norm([a], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        clip_grad_norm([a], max_norm=1.0)
        assert np.allclose(a.grad, [0.3, 0.4])
