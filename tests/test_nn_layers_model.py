"""Tests for the numpy neural-network substrate: layers, model, gradients."""

import numpy as np
import pytest

from repro.nn import ActorCriticMLP, Dense, ReLU, Tanh
from repro.nn.layers import parameter_views
from repro.nn.distributions import MultiCategorical


def _dense(fan_in, fan_out, params=None):
    """A layer ``d`` over flat buffers in parameter_spec order (bias, then
    weight); returns ``(layer, params, grads)``."""
    spec = [("d.bias", (fan_out,)), ("d.weight", (fan_in, fan_out))]
    size = (fan_in + 1) * fan_out
    params = np.zeros(size) if params is None else params
    grads = np.zeros(size)
    layer = Dense("d", parameter_views(params, spec),
                  parameter_views(grads, spec))
    return layer, params, grads


class TestLayers:
    def test_dense_forward_shape(self):
        layer, _, _ = _dense(4, 3)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_dense_backward_accumulates_grads(self):
        rng = np.random.default_rng(0)
        layer, params, grads = _dense(4, 3, params=rng.normal(size=15))
        x = rng.normal(size=(6, 4))
        layer.forward(x)
        grad_in = layer.backward(np.ones((6, 3)))
        assert grad_in.shape == (6, 4)
        # Written in place into the views of the buffers given.
        np.testing.assert_array_equal(grads[:3], np.full(3, 6.0))
        np.testing.assert_array_equal(grads[3:].reshape(4, 3),
                                      x.T @ np.ones((6, 3)))
        np.testing.assert_array_equal(grad_in, np.ones((6, 3))
                                      @ params[3:].reshape(4, 3).T)

    def test_dense_backward_before_forward_raises(self):
        layer, _, _ = _dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_tanh_backward_matches_derivative(self):
        act = Tanh()
        x = np.array([[0.5, -1.0, 2.0]])
        y = act.forward(x)
        grad = act.backward(np.ones_like(x))
        assert np.allclose(grad, 1 - y ** 2)

    def test_relu_masks_negative(self):
        act = ReLU()
        x = np.array([[1.0, -1.0, 0.5]])
        out = act.forward(x)
        assert np.allclose(out, [[1.0, 0.0, 0.5]])
        grad = act.backward(np.ones_like(x))
        assert np.allclose(grad, [[1.0, 0.0, 1.0]])


class TestActorCriticMLP:
    @pytest.fixture
    def model(self):
        return ActorCriticMLP(obs_size=10, action_sizes=(3, 4),
                              hidden_sizes=(16, 16), seed=0)

    def test_forward_shapes(self, model):
        obs = np.random.default_rng(0).normal(size=(7, 10))
        logits, values = model.forward(obs)
        assert logits.shape == (7, 7)
        assert values.shape == (7,)

    def test_single_observation_promoted_to_batch(self, model):
        logits, values = model.forward(np.zeros(10))
        assert logits.shape == (1, 7)
        assert values.shape == (1,)

    def test_split_logits(self, model):
        logits, _ = model.forward(np.zeros((2, 10)))
        blocks = model.split_logits(logits)
        assert [b.shape[1] for b in blocks] == [3, 4]

    def test_parameter_roundtrip(self, model):
        params = {k: v.copy() for k, v in model.parameters().items()}
        obs = np.ones((3, 10))
        before, _ = model.forward(obs)
        # Perturb then restore.
        modified = {k: v + 1.0 for k, v in model.parameters().items()}
        model.load_parameters(modified)
        changed, _ = model.forward(obs)
        assert not np.allclose(before, changed)
        model.load_parameters(params)
        after, _ = model.forward(obs)
        assert np.allclose(before, after)

    def test_num_parameters_positive(self, model):
        assert model.num_parameters() > 0

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            ActorCriticMLP(5, (2,), activation="sigmoid")

    def test_policy_gradient_matches_finite_differences(self):
        """Analytic log-prob gradient through the network matches numerics."""
        model = ActorCriticMLP(obs_size=6, action_sizes=(3, 2),
                               hidden_sizes=(8,), seed=1)
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(4, 6))
        actions = np.stack([rng.integers(0, 3, size=4),
                            rng.integers(0, 2, size=4)], axis=1)

        def loss_fn():
            logits, _ = model.forward(obs)
            dist = MultiCategorical(logits, (3, 2))
            return float(dist.log_prob(actions).sum())

        # Analytic gradient of the summed log-prob w.r.t. parameters.
        logits, _ = model.forward(obs)
        dist = MultiCategorical(logits, (3, 2))
        dlogits = dist.log_prob_grad(actions)
        grads = model.backward(dlogits, np.zeros(4))

        params = model.parameters()
        epsilon = 1e-6
        for name in ("trunk0.weight", "policy.bias"):
            flat_index = 0
            param = params[name]
            original = param.flat[flat_index]
            param.flat[flat_index] = original + epsilon
            model.load_parameters(params)
            up = loss_fn()
            param.flat[flat_index] = original - epsilon
            model.load_parameters(params)
            down = loss_fn()
            param.flat[flat_index] = original
            model.load_parameters(params)
            numeric = (up - down) / (2 * epsilon)
            assert grads[name].flat[flat_index] == pytest.approx(numeric, rel=1e-4,
                                                                 abs=1e-6)
