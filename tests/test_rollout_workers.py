"""Tests for the actor/learner architecture: rollout workers, sharded
collection, backend determinism, and exact checkpoint resume."""

import numpy as np
import pytest

from repro.nn.checkpoints import (
    flatten_parameters,
    load_checkpoint,
    load_training_checkpoint,
    parameter_spec,
    save_checkpoint,
    unflatten_parameters,
)
from repro.neurocuts import (
    NeuroCutsConfig,
    NeuroCutsTrainer,
    RolloutWorker,
    shard_budgets,
    shard_seeds,
)
from repro.neurocuts.workers import broadcast_weights
from repro.nn import ActorCriticMLP
from repro.tree import validate_classifier


def _history_dicts(result):
    """Iteration stats without the timing field (never reproducible)."""
    return [
        {k: v for k, v in stats.as_dict().items() if k != "wall_time_s"}
        for stats in result.history
    ]


@pytest.fixture(scope="module")
def worker_config():
    return NeuroCutsConfig.fast_test_config(
        hidden_sizes=(16, 16),
        max_timesteps_total=900,
        timesteps_per_batch=300,
        max_timesteps_per_rollout=150,
        leaf_threshold=8,
        seed=3,
    )


class TestFlatWeights:
    def test_round_trip(self, trained_trainer):
        params = trained_trainer.model.parameters()
        flat = flatten_parameters(params)
        assert flat.ndim == 1
        assert flat.size == trained_trainer.model.num_parameters()
        restored = unflatten_parameters(flat, parameter_spec(params))
        assert set(restored) == set(params)
        for name in params:
            np.testing.assert_array_equal(restored[name], params[name])

    def test_size_mismatch_raises(self, trained_trainer):
        from repro.exceptions import CheckpointError

        params = trained_trainer.model.parameters()
        with pytest.raises(CheckpointError):
            unflatten_parameters(np.zeros(3), parameter_spec(params))


class TestShardMath:
    def test_budgets_cover_total(self):
        assert shard_budgets(300, 1) == [300]
        assert shard_budgets(300, 4) == [75, 75, 75, 75]
        assert sum(shard_budgets(301, 4)) == 301
        # Every worker gets at least one timestep even when outnumbered.
        assert shard_budgets(2, 4) == [1, 1, 1, 1]

    def test_budgets_validate(self):
        with pytest.raises(ValueError):
            shard_budgets(0, 2)
        with pytest.raises(ValueError):
            shard_budgets(10, 0)

    def test_seeds_deterministic_and_distinct(self):
        first = shard_seeds(3, 0, 4)
        assert first == shard_seeds(3, 0, 4)
        assert len(set(first)) == 4
        # Different iterations and roots give different streams.
        assert first != shard_seeds(3, 1, 4)
        assert first != shard_seeds(4, 0, 4)
        # Worker prefixes are stable: fewer workers = a prefix of more.
        assert shard_seeds(3, 0, 2) == first[:2]


class TestRolloutWorker:
    def test_replica_is_allocated_not_initialised(self, small_acl_ruleset,
                                                  worker_config, monkeypatch):
        # collect() loads the learner's weights first, so building the
        # replica must not run the orthogonal initialiser (one QR a layer).
        def no_qr(*args, **kwargs):
            raise AssertionError("the replica ran the weight initialiser")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        with pytest.raises(AssertionError, match="initialiser"):
            ActorCriticMLP(4, (2,), hidden_sizes=(3,))
        worker = RolloutWorker(small_acl_ruleset, worker_config)
        assert not worker.model.flat.any()
        weights = np.arange(worker.model.flat.size, dtype=np.float64)
        worker.load_weights(weights)
        np.testing.assert_array_equal(broadcast_weights(worker.model), weights)

    def test_collect_is_pure(self, small_acl_ruleset, worker_config):
        worker = RolloutWorker(small_acl_ruleset, worker_config)
        weights = broadcast_weights(worker.model)
        first = worker.collect(weights, seed=11, budget=120)
        second = worker.collect(weights, seed=11, budget=120)
        assert first.num_steps == second.num_steps
        assert len(first.summaries) == len(second.summaries)
        np.testing.assert_array_equal(first.batch.obs, second.batch.obs)
        np.testing.assert_array_equal(first.batch.actions, second.batch.actions)
        np.testing.assert_array_equal(first.batch.returns, second.batch.returns)

    def test_collect_fills_budget_with_whole_rollouts(self, small_acl_ruleset,
                                                      worker_config):
        worker = RolloutWorker(small_acl_ruleset, worker_config)
        weights = broadcast_weights(worker.model)
        shard = worker.collect(weights, seed=0, budget=100)
        assert shard.num_steps >= 100
        assert shard.num_steps == sum(s.num_steps for s in shard.summaries)
        assert len(shard.batch) == shard.num_steps

    def test_best_candidates_track_shard_minimum(self, small_acl_ruleset,
                                                 worker_config):
        worker = RolloutWorker(small_acl_ruleset, worker_config)
        weights = broadcast_weights(worker.model)
        shard = worker.collect(weights, seed=5, budget=200)
        best = min(s.objective for s in shard.summaries)
        assert shard.best_any is not None
        assert shard.best_any.objective == best
        if shard.best_complete is not None:
            assert shard.best_complete.objective >= best

    def test_different_seeds_different_rollouts(self, small_acl_ruleset,
                                                worker_config):
        worker = RolloutWorker(small_acl_ruleset, worker_config)
        weights = broadcast_weights(worker.model)
        a = worker.collect(weights, seed=1, budget=60)
        b = worker.collect(weights, seed=2, budget=60)
        assert a.num_steps != b.num_steps or \
            not np.array_equal(a.batch.actions, b.batch.actions)


class TestBackendDeterminism:
    def test_serial_matches_one_worker_process_pool(self, small_acl_ruleset,
                                                    worker_config):
        with NeuroCutsTrainer(small_acl_ruleset, worker_config) as serial:
            serial_result = serial.train()
        with NeuroCutsTrainer(small_acl_ruleset, worker_config,
                              rollout_backend="process") as pooled:
            pooled_result = pooled.train()
        assert _history_dicts(serial_result) == _history_dicts(pooled_result)
        assert serial_result.best_objective == pooled_result.best_objective
        assert serial_result.timesteps_total == pooled_result.timesteps_total

    def test_serial_reruns_are_identical(self, small_acl_ruleset, worker_config):
        with NeuroCutsTrainer(small_acl_ruleset, worker_config) as a:
            first = a.train()
        with NeuroCutsTrainer(small_acl_ruleset, worker_config) as b:
            second = b.train()
        assert _history_dicts(first) == _history_dicts(second)


class TestTrainerLifecycle:
    def test_rejects_unsupported_rollout_backend(self, worker_config):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="rollout_backend"):
            NeuroCutsTrainer(None, worker_config, rollout_backend="thread")

    def test_single_leaf_ruleset_returns_optimal_tree(self, tiny_ruleset):
        # Every rule fits one terminal leaf: there are no decisions to
        # learn, but train() must return the (optimal) single-leaf tree
        # instead of crashing or spinning.
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16), leaf_threshold=len(tiny_ruleset), seed=0,
        )
        with NeuroCutsTrainer(tiny_ruleset, config) as trainer:
            result = trainer.train()
        assert result.best_tree.num_nodes() == 1
        assert result.timesteps_total == 0

    def test_close_releases_in_process_worker_state(self, small_acl_ruleset,
                                                    worker_config):
        from repro.neurocuts import workers

        trainer = NeuroCutsTrainer(small_acl_ruleset, worker_config)
        trainer.collect_batch()
        session = trainer._session
        assert session in workers._WORKERS  # serial backend: built in-process
        trainer.close()
        assert session not in workers._WORKERS


class TestShardedTraining:
    def test_multi_worker_training_produces_valid_classifier(
            self, small_acl_ruleset):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16),
            max_timesteps_total=600,
            timesteps_per_batch=300,
            max_timesteps_per_rollout=150,
            leaf_threshold=8,
            seed=3,
            num_rollout_workers=2,
        )
        # 2 shards, no pool: fast and portable.
        with NeuroCutsTrainer(small_acl_ruleset, config,
                              rollout_backend="serial") as trainer:
            result = trainer.train()
        assert trainer.num_rollout_workers == 2
        report = validate_classifier(result.best_classifier(),
                                     num_random_packets=100)
        assert report.is_correct
        # Each iteration gathered at least one rollout per shard.
        assert all(stats.num_rollouts >= 2 for stats in result.history)


class TestCheckpointResume:
    def test_model_only_checkpoint_back_compat(self, trained_trainer, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(trained_trainer.model, path)
        model = load_checkpoint(path)
        assert model.num_parameters() == trained_trainer.model.num_parameters()
        bundle = load_training_checkpoint(path)
        assert bundle.optimizer_state is None
        assert bundle.trainer_state is None

    def test_optimizer_state_round_trip(self, trained_trainer, tmp_path):
        path = tmp_path / "learner.npz"
        save_checkpoint(trained_trainer.model, path,
                        optimizer=trained_trainer.learner.optimizer)
        bundle = load_training_checkpoint(path)
        saved = trained_trainer.learner.optimizer.state_dict()
        assert bundle.optimizer_state["t"] == saved["t"]
        assert set(bundle.optimizer_state["m"]) == set(saved["m"])
        for name, array in saved["m"].items():
            np.testing.assert_array_equal(bundle.optimizer_state["m"][name],
                                          array)

    def test_resume_is_exact(self, small_acl_ruleset, tmp_path):
        def config():
            return NeuroCutsConfig.fast_test_config(
                hidden_sizes=(16, 16),
                max_timesteps_total=1200,
                timesteps_per_batch=300,
                max_timesteps_per_rollout=150,
                leaf_threshold=8,
                seed=3,
            )

        # Uninterrupted run: 4 iterations in one go.
        with NeuroCutsTrainer(small_acl_ruleset, config()) as full:
            full_result = full.train(max_iterations=4)

        # Interrupted run: 2 iterations, checkpoint, restore, 2 more.
        path = tmp_path / "resume.npz"
        with NeuroCutsTrainer(small_acl_ruleset, config()) as first_half:
            first_half.train(max_iterations=2)
            first_half.save(path)
        resumed = NeuroCutsTrainer.restore(path, small_acl_ruleset, config())
        with resumed:
            resumed_result = resumed.train(max_iterations=4)

        assert _history_dicts(resumed_result) == _history_dicts(full_result)
        assert resumed_result.best_objective == full_result.best_objective
        assert resumed_result.timesteps_total == full_result.timesteps_total
        # The resumed best tree still classifies correctly.
        report = validate_classifier(resumed_result.best_classifier(),
                                     num_random_packets=100)
        assert report.is_correct

    def test_restore_without_config_resumes_saved_config(
            self, small_acl_ruleset, tmp_path):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16),
            max_timesteps_total=1200,
            timesteps_per_batch=300,
            max_timesteps_per_rollout=150,
            leaf_threshold=8,
            seed=3,
            time_space_coeff=0.5,
            reward_scaling="log",
            num_rollout_workers=2,
        )
        path = tmp_path / "cfg.npz"
        with NeuroCutsTrainer(small_acl_ruleset, config,
                              rollout_backend="serial") as trainer:
            trainer.train(max_iterations=1)
            trainer.save(path)
        resumed = NeuroCutsTrainer.restore(path, small_acl_ruleset,
                                           rollout_backend="serial")
        with resumed:
            # The saved (non-default) config came back, not NeuroCutsConfig().
            assert resumed.config.seed == 3
            assert resumed.config.time_space_coeff == 0.5
            assert resumed.config.reward_scaling == "log"
            assert resumed.config.num_rollout_workers == 2
            assert tuple(resumed.config.hidden_sizes) == (16, 16)
            resumed.train(max_iterations=2)
        assert len(resumed.history) == 2

    def test_restore_rejects_model_only_checkpoint(self, trained_trainer,
                                                   small_acl_ruleset, tmp_path):
        from repro.exceptions import CheckpointError

        path = tmp_path / "model_only.npz"
        save_checkpoint(trained_trainer.model, path)
        with pytest.raises(CheckpointError):
            NeuroCutsTrainer.restore(path, small_acl_ruleset)
