"""Tests for the RL substrate: spaces, batches, advantages, PPO, policy."""

import numpy as np
import pytest

from repro.nn import ActorCriticMLP
from repro.rl import (
    Box,
    Discrete,
    ExperienceBuilder,
    PPOConfig,
    PPOLearner,
    Policy,
    SampleBatch,
    TupleSpace,
    normalize_advantages,
)


class TestSpaces:
    def test_discrete_contains_and_sample(self):
        space = Discrete(4)
        rng = np.random.default_rng(0)
        assert space.contains(0) and space.contains(3)
        assert not space.contains(4)
        assert 0 <= space.sample(rng) < 4

    def test_box_contains(self):
        space = Box(low=0.0, high=1.0, shape=(3,))
        assert space.contains(np.array([0.0, 0.5, 1.0]))
        assert not space.contains(np.array([0.0, 2.0, 1.0]))
        assert not space.contains(np.zeros(4))

    def test_tuple_space(self):
        space = TupleSpace(spaces=(Discrete(5), Discrete(2)))
        assert space.sizes == (5, 2)
        assert space.contains((4, 1))
        assert not space.contains((5, 0))
        rng = np.random.default_rng(0)
        assert space.contains(space.sample(rng))


class TestSampleBatch:
    def _make(self, n=10, masks=True):
        rng = np.random.default_rng(0)
        return SampleBatch(
            obs=rng.normal(size=(n, 4)),
            actions=rng.integers(0, 2, size=(n, 2)),
            returns=rng.normal(size=n),
            value_preds=rng.normal(size=n),
            logp_old=rng.normal(size=n),
            action_masks=[np.ones((n, 3), dtype=bool),
                          np.ones((n, 2), dtype=bool)] if masks else None,
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(
                obs=np.zeros((3, 2)), actions=np.zeros((2, 1)),
                returns=np.zeros(3), value_preds=np.zeros(3), logp_old=np.zeros(3),
            )

    def test_advantages(self):
        batch = self._make()
        assert np.allclose(batch.advantages, batch.returns - batch.value_preds)

    def test_take_and_minibatches_cover_batch(self):
        batch = self._make(10)
        rng = np.random.default_rng(0)
        pieces = list(batch.minibatches(3, rng))
        assert sum(len(p) for p in pieces) == 10
        assert all(p.action_masks is not None for p in pieces)

    def test_concat(self):
        a, b = self._make(4), self._make(6)
        merged = SampleBatch.concat([a, b])
        assert len(merged) == 10
        assert merged.action_masks[0].shape == (10, 3)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch.concat([])

    def test_experience_builder(self):
        builder = ExperienceBuilder()
        for i in range(5):
            builder.add(
                obs=np.full(4, i), action=np.array([i % 2, 0]), ret=float(i),
                value_pred=0.5, logp=-1.0,
                masks=[np.ones(3, dtype=bool), np.ones(2, dtype=bool)],
            )
        batch = builder.build()
        assert len(batch) == 5
        assert batch.obs.shape == (5, 4)
        assert batch.action_masks[1].shape == (5, 2)

    def test_experience_builder_empty_rejected(self):
        with pytest.raises(ValueError):
            ExperienceBuilder().build()


class TestAdvantages:
    def test_normalize_zero_mean_unit_std(self):
        adv = normalize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)

    def test_normalize_constant_vector_safe(self):
        adv = normalize_advantages(np.array([2.0, 2.0, 2.0]))
        assert np.allclose(adv, 0.0)


class TestPPO:
    def test_config_validation(self):
        with pytest.raises(Exception):
            PPOConfig(learning_rate=-1).validate()
        with pytest.raises(Exception):
            PPOConfig(clip_param=2.0).validate()
        PPOConfig().validate()

    def _contextual_bandit_batch(self, model, rng, n=256):
        """A 2-context bandit: action 0 is right in context 0, action 1 in 1."""
        from repro.nn.distributions import MultiCategorical

        obs = np.zeros((n, 4))
        contexts = rng.integers(0, 2, size=n)
        obs[np.arange(n), contexts] = 1.0
        logits, values = model.forward(obs)
        dist = MultiCategorical(logits, model.action_sizes)
        actions = dist.sample(rng)
        rewards = np.where(actions[:, 0] == contexts, 1.0, -1.0)
        return SampleBatch(
            obs=obs, actions=actions, returns=rewards,
            value_preds=values, logp_old=dist.log_prob(actions),
        ), contexts

    def test_ppo_learns_contextual_bandit(self):
        rng = np.random.default_rng(0)
        model = ActorCriticMLP(obs_size=4, action_sizes=(2, 2),
                               hidden_sizes=(16,), seed=0)
        config = PPOConfig(learning_rate=0.01, num_sgd_iters=5,
                           sgd_minibatch_size=64, kl_target=10.0)
        learner = PPOLearner(model, config, seed=0)
        for _ in range(15):
            batch, _ = self._contextual_bandit_batch(model, rng)
            stats = learner.update(batch)
        # After training, the greedy action should match the context.
        obs = np.eye(4)[:2]
        logits, _ = model.forward(obs)
        first_component = logits[:, :2]
        assert np.argmax(first_component[0]) == 0
        assert np.argmax(first_component[1]) == 1
        assert stats.entropy >= 0.0

    def test_kl_early_stop(self):
        model = ActorCriticMLP(obs_size=4, action_sizes=(2, 2),
                               hidden_sizes=(8,), seed=0)
        config = PPOConfig(learning_rate=0.5, num_sgd_iters=30,
                           sgd_minibatch_size=32, kl_target=1e-4)
        learner = PPOLearner(model, config, seed=0)
        rng = np.random.default_rng(1)
        batch, _ = self._contextual_bandit_batch(model, rng, n=128)
        stats = learner.update(batch)
        assert stats.num_sgd_iters_run < 30


class TestPolicy:
    def test_action_space_mismatch_rejected(self):
        model = ActorCriticMLP(obs_size=4, action_sizes=(2, 2), hidden_sizes=(8,))
        with pytest.raises(ValueError):
            Policy(model, TupleSpace(spaces=(Discrete(3), Discrete(2))))

    def test_act_respects_masks(self):
        model = ActorCriticMLP(obs_size=4, action_sizes=(3, 2), hidden_sizes=(8,))
        policy = Policy(model, TupleSpace(spaces=(Discrete(3), Discrete(2))), seed=0)
        masks = [np.array([True, False, False]), np.array([False, True])]
        for _ in range(20):
            decision = policy.act(np.zeros(4), masks=masks)
            assert decision.action == (0, 1)
            assert np.isfinite(decision.log_prob)
            assert len(decision.masks) == 2

    def test_deterministic_action_is_mode(self):
        model = ActorCriticMLP(obs_size=4, action_sizes=(3, 2), hidden_sizes=(8,))
        policy = Policy(model, TupleSpace(spaces=(Discrete(3), Discrete(2))), seed=0)
        action = policy.act_deterministic(np.zeros(4))
        assert len(action) == 2

    def test_value_returns_float(self):
        model = ActorCriticMLP(obs_size=4, action_sizes=(2, 2), hidden_sizes=(8,))
        policy = Policy(model, TupleSpace(spaces=(Discrete(2), Discrete(2))))
        assert isinstance(policy.value(np.zeros(4)), float)
