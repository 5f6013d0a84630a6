"""Unit tests for the optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.rl.nn import Adam, Linear, MLP, Parameter, clip_grad_norm_


def quadratic_problem(dim=4, seed=0):
    """A simple convex problem: minimise 0.5 * ||x - target||^2."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    param = Parameter(np.zeros(dim), "x")
    return param, target


class TestAdam:
    def test_converges_on_quadratic(self):
        param, target = quadratic_problem(seed=2)
        opt = Adam([param], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            param.grad += param.data - target
            opt.step()
        assert np.allclose(param.data, target, atol=1e-3)

    def test_step_counter(self):
        param, _ = quadratic_problem()
        opt = Adam([param], lr=0.01)
        assert opt.t == 0
        param.grad += 1.0
        opt.step()
        assert opt.t == 1

    def test_first_step_magnitude_close_to_lr(self):
        # With bias correction, the very first Adam update is ~lr regardless of
        # gradient magnitude.
        param = Parameter(np.zeros(3))
        opt = Adam([param], lr=0.01)
        param.grad += np.array([100.0, 0.5, 1e-3])
        opt.step()
        assert np.allclose(np.abs(param.data), 0.01, rtol=1e-2)

    def test_weight_decay_shrinks_params(self):
        param = Parameter(np.full(3, 5.0))
        opt = Adam([param], lr=0.1, weight_decay=0.1)
        for _ in range(300):
            opt.zero_grad()
            opt.step()
        assert np.all(np.abs(param.data) < 1.0)

    def test_trains_a_network_to_fit_data(self, rng):
        net = MLP(2, [16], 1, rng=rng)
        opt = Adam(net.parameters(), lr=1e-2)
        x = rng.uniform(-1, 1, size=(64, 2))
        y = (x[:, :1] * 2 - x[:, 1:] * 0.5) + 0.3
        first_loss = None
        for step in range(300):
            opt.zero_grad()
            pred = net.forward(x)
            loss = float(np.mean((pred - y) ** 2))
            if first_loss is None:
                first_loss = loss
            net.backward(2 * (pred - y) / len(x))
            opt.step()
        assert loss < first_loss * 0.05

    def test_validation(self):
        param = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            Adam([param], lr=-1)
        with pytest.raises(ValueError):
            Adam([param], lr=0.1, betas=(1.5, 0.9))
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_set_lr(self):
        param = Parameter(np.zeros(2))
        opt = Adam([param], lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ValueError):
            opt.set_lr(0)


class TestClipGradNorm:
    def test_no_clipping_below_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad += np.array([0.1, 0.1, 0.1, 0.1])
        norm = clip_grad_norm_([p], max_norm=10.0)
        assert np.isclose(norm, 0.2)
        assert np.allclose(p.grad, 0.1)

    def test_clipping_scales_down(self):
        p1, p2 = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        p1.grad += np.array([3.0, 0.0])
        p2.grad += np.array([0.0, 4.0])
        norm = clip_grad_norm_([p1, p2], max_norm=1.0)
        assert np.isclose(norm, 5.0)
        total_after = np.sqrt(np.sum(p1.grad**2) + np.sum(p2.grad**2))
        assert np.isclose(total_after, 1.0, atol=1e-9)
