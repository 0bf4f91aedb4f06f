"""Tests for categorical distributions, optimisers, and checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    ActorCriticMLP,
    Categorical,
    MultiCategorical,
    clip_gradients,
    load_checkpoint,
    save_checkpoint,
    softmax,
)


class TestCategorical:
    def test_probs_sum_to_one(self):
        dist = Categorical(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(dist.probs.sum(axis=1), 1.0)

    def test_log_prob_matches_probs(self):
        logits = np.array([[0.3, -1.2, 2.0]])
        dist = Categorical(logits)
        for action in range(3):
            assert dist.log_prob(np.array([action]))[0] == pytest.approx(
                np.log(dist.probs[0, action])
            )

    def test_mask_zeroes_invalid_actions(self):
        dist = Categorical(np.zeros((1, 4)), mask=np.array([1, 0, 1, 0]))
        assert dist.probs[0, 1] == pytest.approx(0.0)
        assert dist.probs[0, 3] == pytest.approx(0.0)
        assert dist.probs[0, [0, 2]].sum() == pytest.approx(1.0)

    def test_masked_actions_never_sampled(self):
        rng = np.random.default_rng(0)
        dist = Categorical(np.zeros((100, 3)),
                           mask=np.tile(np.array([1, 0, 1]), (100, 1)))
        samples = dist.sample(rng)
        assert not np.any(samples == 1)

    def test_entropy_of_uniform_is_log_n(self):
        dist = Categorical(np.zeros((1, 8)))
        assert dist.entropy()[0] == pytest.approx(np.log(8))

    def test_entropy_grad_matches_finite_differences(self):
        logits = np.array([[0.5, -0.3, 1.2, 0.0]])
        dist = Categorical(logits)
        analytic = dist.entropy_grad()
        eps = 1e-6
        for i in range(4):
            up = logits.copy(); up[0, i] += eps
            down = logits.copy(); down[0, i] -= eps
            numeric = (Categorical(up).entropy()[0] -
                       Categorical(down).entropy()[0]) / (2 * eps)
            assert analytic[0, i] == pytest.approx(numeric, abs=1e-5)

    def test_log_prob_grad_matches_finite_differences(self):
        logits = np.array([[0.1, 0.7, -0.4]])
        action = np.array([2])
        analytic = Categorical(logits).log_prob_grad(action)
        eps = 1e-6
        for i in range(3):
            up = logits.copy(); up[0, i] += eps
            down = logits.copy(); down[0, i] -= eps
            numeric = (Categorical(up).log_prob(action)[0] -
                       Categorical(down).log_prob(action)[0]) / (2 * eps)
            assert analytic[0, i] == pytest.approx(numeric, abs=1e-5)

    def test_kl_self_is_zero(self):
        dist = Categorical(np.array([[0.4, 1.0, -2.0]]))
        assert dist.kl(dist)[0] == pytest.approx(0.0)

    def test_mode_is_argmax(self):
        dist = Categorical(np.array([[0.1, 5.0, -1.0]]))
        assert dist.mode()[0] == 1


class TestMultiCategorical:
    def test_sizes_must_match_logits(self):
        with pytest.raises(ValueError):
            MultiCategorical(np.zeros((1, 5)), sizes=(3, 3))

    def test_log_prob_is_sum_of_components(self):
        flat = np.array([[0.1, 0.2, 0.3, -0.5, 0.5]])
        dist = MultiCategorical(flat, sizes=(3, 2))
        action = np.array([[1, 0]])
        separate = (Categorical(flat[:, :3]).log_prob(np.array([1]))[0]
                    + Categorical(flat[:, 3:]).log_prob(np.array([0]))[0])
        assert dist.log_prob(action)[0] == pytest.approx(separate)

    def test_entropy_is_sum(self):
        dist = MultiCategorical(np.zeros((1, 5)), sizes=(3, 2))
        assert dist.entropy()[0] == pytest.approx(np.log(3) + np.log(2))

    def test_sample_shapes_and_ranges(self):
        rng = np.random.default_rng(1)
        dist = MultiCategorical(np.zeros((10, 7)), sizes=(5, 2))
        samples = dist.sample(rng)
        assert samples.shape == (10, 2)
        assert samples[:, 0].max() < 5 and samples[:, 1].max() < 2

    def test_grad_layout_matches_flat_logits(self):
        dist = MultiCategorical(np.zeros((2, 5)), sizes=(3, 2))
        grad = dist.log_prob_grad(np.array([[0, 1], [2, 0]]))
        assert grad.shape == (2, 5)
        assert dist.entropy_grad().shape == (2, 5)


class TestOptimizers:
    def test_adam_reduces_quadratic_loss(self):
        opt = Adam([("w", (1,))], learning_rate=0.05)
        w = np.array([5.0])
        for _ in range(200):
            opt.step(w, 2 * w)
        assert abs(w[0]) < 0.5

    def test_adam_state_roundtrip(self):
        opt = Adam([("w", (1,))], learning_rate=0.01)
        opt.step(np.array([1.0]), np.array([0.5]))
        state = opt.state_dict()
        other = Adam([("w", (1,))], learning_rate=0.01)
        other.load_state_dict(state)
        assert other._t == opt._t

    def test_clip_gradients_scales_norm(self):
        grad = np.array([3.0, 4.0])
        assert clip_gradients(grad, [grad], max_norm=1.0) == 1.0
        norm = np.sqrt((grad ** 2).sum())
        assert norm == pytest.approx(1.0)
        assert clip_gradients(grad, [grad], None) == pytest.approx(1.0)
        assert np.sqrt((grad ** 2).sum()) == pytest.approx(1.0)


class TestSoftmaxAndCheckpoints:
    def test_softmax_stability_with_large_logits(self):
        probs = softmax(np.array([[1000.0, 1001.0, 999.0]]))
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)

    def test_checkpoint_roundtrip(self, tmp_path):
        model = ActorCriticMLP(obs_size=6, action_sizes=(3, 2),
                               hidden_sizes=(8,), seed=4)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        obs = np.random.default_rng(0).normal(size=(3, 6))
        a_logits, a_values = model.forward(obs)
        b_logits, b_values = restored.forward(obs)
        assert np.allclose(a_logits, b_logits)
        assert np.allclose(a_values, b_values)

    def test_checkpoint_missing_file_raises(self, tmp_path):
        from repro.exceptions import CheckpointError

        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.npz")
