"""Unit tests for the neural-network layers, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.rl.nn import MLP, Adam, Identity, Linear, Module, Parameter, ReLU, Sequential, Tanh
from repro.rl.nn.init import orthogonal_


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function f at x (flattened)."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


class TestInit:
    def test_orthogonal_rows_orthonormal(self, rng):
        w = orthogonal_((8, 4), gain=1.0, rng=rng)
        gram = w.T @ w
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_orthogonal_gain_scales(self, rng):
        w = orthogonal_((6, 6), gain=2.0, rng=rng)
        assert np.allclose(w @ w.T, 4.0 * np.eye(6), atol=1e-8)

    def test_orthogonal_wide_matrix(self, rng):
        w = orthogonal_((3, 7), gain=1.0, rng=rng)
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-8)

    def test_orthogonal_rejects_non_2d(self):
        with pytest.raises(ValueError):
            orthogonal_((3,))


class TestParameterAndModule:
    def test_parameter_grad_starts_zero(self):
        p = Parameter(np.ones((2, 2)))
        assert np.all(p.grad == 0)
        p.grad += 1.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_module_collects_parameters_recursively(self):
        net = Sequential(Linear(3, 4), Tanh(), Linear(4, 2))
        params = net.parameters()
        assert len(params) == 4  # two weights + two biases
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_state_dict_roundtrip(self, rng):
        net = MLP(3, [5], 2, rng=rng)
        other = MLP(3, [5], 2, rng=np.random.default_rng(999))
        x = rng.standard_normal((4, 3))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.load_state_dict(net.state_dict())
        assert np.allclose(net.forward(x), other.forward(x))

    def test_load_state_dict_shape_mismatch(self, rng):
        net = MLP(3, [5], 2, rng=rng)
        wrong = MLP(3, [6], 2, rng=rng)
        with pytest.raises((ValueError, KeyError)):
            net.load_state_dict(wrong.state_dict())


class TestForwardShapes:
    def test_linear_shapes(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(rng.standard_normal((7, 4)))
        assert out.shape == (7, 3)

    def test_single_sample_promoted_to_batch(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(rng.standard_normal(4))
        assert out.shape == (1, 3)

    def test_activations(self):
        x = np.array([[-2.0, 0.0, 2.0]])
        assert np.allclose(Tanh().forward(x), np.tanh(x))
        assert np.allclose(ReLU().forward(x), [[0.0, 0.0, 2.0]])
        assert np.allclose(Identity().forward(x), x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            Tanh().backward(np.ones((1, 2)))

    def test_mlp_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(2, [4], 1, activation="gelu")


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_mlp_parameter_gradients_match_finite_differences(self, activation, rng):
        net = MLP(3, [6, 5], 2, activation=activation, rng=rng)
        x = rng.standard_normal((8, 3))
        target = rng.standard_normal((8, 2))

        def loss_value():
            out = net.forward(x)
            return 0.5 * float(np.sum((out - target) ** 2))

        # Analytic gradients.
        net.zero_grad()
        out = net.forward(x)
        net.backward(out - target)

        for param in net.parameters():
            numeric = numerical_gradient(loss_value, param.data)
            assert np.allclose(param.grad, numeric, rtol=1e-4, atol=1e-6), param.name

    def test_input_gradient_matches_finite_differences(self, rng):
        net = MLP(4, [5], 3, rng=rng)
        x = rng.standard_normal((2, 4))
        target = rng.standard_normal((2, 3))

        net.zero_grad()
        out = net.forward(x)
        grad_input = net.backward(out - target)

        def loss_at(x_val):
            out = net.forward(x_val)
            return 0.5 * float(np.sum((out - target) ** 2))

        numeric = np.zeros_like(x)
        eps = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += eps
                xm = x.copy()
                xm[i, j] -= eps
                numeric[i, j] = (loss_at(xp) - loss_at(xm)) / (2 * eps)
        assert np.allclose(grad_input, numeric, rtol=1e-4, atol=1e-6)

    def test_gradient_accumulation(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        assert np.allclose(layer.weight.grad, 2 * first)


class TestSequentialContainer:
    def test_len_iter_getitem(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), Tanh(), Linear(3, 1, rng=rng))
        assert len(net) == 3
        assert isinstance(net[1], Tanh)
        assert [type(layer).__name__ for layer in net] == ["Linear", "Tanh", "Linear"]
