"""The NeuroCuts training driver (Algorithm 1 + the PPO realisation of §5).

The trainer is the *learner* of an actor/learner architecture (the paper's
Figure 7 scaling design).  It owns one executor of
:class:`~repro.neurocuts.workers.RolloutWorker` shards — serial in-process
for one worker, a persistent spawn process pool otherwise — built on first
use and torn down in :meth:`NeuroCutsTrainer.close`.  A *collection round*
snapshots the policy weights, scatters them with per-worker seeds and
timestep budgets, and gathers and concatenates the experience shards; each
iteration trains one round with a central PPO update and tracks the best
tree seen so far under the configured time/space objective — the artifact
the evaluation section reports.

Shard collection is a pure function of (weights, seed, budget), and every
shard request carries the flat weight vector itself, so for a fixed
configuration the serial backend and a one-worker process pool produce
byte-identical training histories.

There is one training loop and it is synchronous: each iteration collects
one round on the current weights (:meth:`NeuroCutsTrainer.collect_batch`)
and then trains on it, so split ``train`` calls and resumed runs continue
byte-identically.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.exceptions import BuildError, CheckpointError, ConfigError
from repro.rules.ruleset import RuleSet
from repro.nn.checkpoints import load_training_checkpoint, save_checkpoint
from repro.nn.model import ActorCriticMLP
from repro.rl.batch import SampleBatch
from repro.rl.policy import Policy
from repro.rl.ppo import PPOLearner, PPOStats
from repro.tree.lookup import TreeClassifier
from repro.tree.serialize import tree_from_dict, tree_to_dict
from repro.tree.tree import DecisionTree
from repro.baselines.base import TreeBuilder
from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.env import NeuroCutsEnv, RolloutResult
from repro.neurocuts.reward import RewardComponents
from repro.neurocuts.workers import (
    ROLLOUT_BACKENDS,
    RolloutSummary,
    ShardRequest,
    _collect_shard,
    broadcast_weights,
    discard_session,
    make_rollout_executor,
    shard_budgets,
    shard_seeds,
)


@dataclass
class IterationStats:
    """Diagnostics for one training iteration (one PPO batch)."""

    iteration: int
    timesteps_total: int
    num_rollouts: int
    mean_reward: float
    best_objective: float
    best_time: float
    best_space: float
    policy_loss: float
    value_loss: float
    entropy: float
    kl: float
    wall_time_s: float

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


@dataclass
class TrainingResult:
    """Outcome of a full NeuroCuts training run."""

    best_tree: DecisionTree
    best_objective: float
    best_time: float
    best_space: float
    history: List[IterationStats]
    timesteps_total: int

    def best_classifier(self) -> TreeClassifier:
        """The best tree wrapped as a deployable classifier."""
        return TreeClassifier(self.best_tree.ruleset, [self.best_tree])


class NeuroCutsTrainer:
    """Trains a NeuroCuts policy for one classifier and extracts its best tree.

    Args:
        ruleset: the classifier to learn a tree for.
        config: training configuration; ``config.num_rollout_workers``
            controls rollout sharding.
        rollout_backend: the executor the trainer builds for its shards —
            ``"serial"``, ``"process"``, or ``None`` (serial for one worker,
            a persistent spawn pool otherwise).  Histories do not depend on
            it; e.g. a one-worker process pool reproduces the serial run.
    """

    def __init__(self, ruleset: RuleSet,
                 config: Optional[NeuroCutsConfig] = None,
                 rollout_backend: Optional[str] = None) -> None:
        if rollout_backend not in ROLLOUT_BACKENDS:
            raise ConfigError(
                f"rollout_backend must be one of {ROLLOUT_BACKENDS}, "
                f"got {rollout_backend!r}"
            )
        self.config = config or NeuroCutsConfig()
        self.ruleset = ruleset
        self.env = NeuroCutsEnv(ruleset, self.config)
        self.model = ActorCriticMLP(
            obs_size=self.env.observation_size,
            action_sizes=self.env.action_sizes,
            hidden_sizes=self.config.hidden_sizes,
            activation=self.config.activation,
            seed=self.config.seed,
        )
        self.policy = Policy(self.model, self.env.action_space.space,
                             seed=self.config.seed)
        self.learner = PPOLearner(self.model, self.config.ppo_config(),
                                  seed=self.config.seed)
        self.history: List[IterationStats] = []
        self._timesteps_total = 0
        #: Number of collection rounds run so far (seeds shards per round).
        self._collect_rounds = 0
        #: Convergence-patience state (persists across train() calls and
        #: checkpoint resumes).
        self._stale_iterations = 0
        self._last_best = float("inf")
        #: Best rollout whose tree completed within the rollout budget.
        self._best_rollout: Optional[RolloutResult] = None
        #: Best rollout overall, including truncated trees (still valid
        #: classifiers — truncation only leaves oversized leaves behind).
        self._best_any: Optional[RolloutResult] = None
        self._rollout_backend = rollout_backend
        #: The trainer's executor and the session id its workers serve
        #: (built on first collection, released by close()).
        self._executor: Optional[Executor] = None
        self._session: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #

    @property
    def num_rollout_workers(self) -> int:
        """How many rollout shards each batch is scattered over."""
        return self.config.num_rollout_workers

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            self._executor, self._session = make_rollout_executor(
                self.ruleset, self.config, self.config.num_rollout_workers,
                backend=self._rollout_backend,
            )
        return self._executor

    def close(self) -> None:
        """Shut down the trainer's executor (idempotent)."""
        # Serial sessions build their rollout worker in this process; drop
        # it so closed trainers do not accumulate env + model replicas.
        discard_session(self._session)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._session = None

    def __enter__(self) -> "NeuroCutsTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rollout collection (the scatter/gather half of the learner loop)
    # ------------------------------------------------------------------ #

    def _build_requests(self) -> List[ShardRequest]:
        """Scatter plan for the next collection round (round index seeds it)."""
        remaining = self.config.max_timesteps_total - self._timesteps_total
        total_budget = max(1, min(self.config.timesteps_per_batch, remaining))
        num_workers = max(1, self.num_rollout_workers)
        budgets = shard_budgets(total_budget, num_workers)
        seeds = shard_seeds(self.config.seed, self._collect_rounds, num_workers)
        weights = broadcast_weights(self.model)
        return [
            ShardRequest(session=self._session, weights=weights, seed=seed,
                         budget=budget)
            for seed, budget in zip(seeds, budgets)
        ]

    def _fold_shards(self, shards) -> tuple[SampleBatch, List[RolloutSummary]]:
        """Consume one gathered round: count steps, fold bests, concatenate."""
        self._collect_rounds += 1
        batches: List[SampleBatch] = []
        summaries: List[RolloutSummary] = []
        for shard in shards:
            self._timesteps_total += shard.num_steps
            summaries.extend(shard.summaries)
            if shard.batch is not None:
                batches.append(shard.batch)
            # Gather in worker order so tie-breaking (strict <, first wins)
            # matches a serial pass over the same rollout stream.
            if shard.best_any is not None:
                self._consider_best(shard.best_any)
            if shard.best_complete is not None:
                self._consider_best(shard.best_complete)
        if not batches:
            # Zero-step rollouts (a ruleset that fits one terminal leaf)
            # still report their tree through the best tracking above, so
            # train() can return the optimal tree instead of crashing.
            raise BuildError("no experience collected; rollouts produced no steps")
        return SampleBatch.concat(batches), summaries

    def collect_batch(self) -> tuple[SampleBatch, List[RolloutSummary]]:
        """Collect one PPO batch worth of rollouts on the current weights.

        Broadcasts the weights, scatters per-worker seeds and budgets,
        gathers the shards, folds their best-tree candidates into the global
        best tracking, and concatenates the experience.
        """
        shards = list(self._ensure_executor().map(_collect_shard,
                                                  self._build_requests()))
        return self._fold_shards(shards)

    def _consider_best(self, result: RolloutResult) -> None:
        """Track the best complete (non-overflowing) tree seen so far."""
        if self._best_any is None or result.objective < self._best_any.objective:
            self._best_any = result
        if result.overflowing:
            return
        if self._best_rollout is None or result.objective < self._best_rollout.objective:
            self._best_rollout = result

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #

    def train(self, max_iterations: Optional[int] = None) -> TrainingResult:
        """Run training until the timestep budget (or iteration cap) is hit.

        Each iteration collects one round on the current weights and runs
        one PPO update on it.

        Convergence-patience counters live on the trainer (not this call),
        so repeated ``train`` calls — and checkpoint resumes — continue the
        same trajectory an uninterrupted run would follow.
        """
        total = self.config.max_timesteps_total
        iteration = len(self.history)
        while self._timesteps_total < total:
            if max_iterations is not None and iteration >= max_iterations:
                break
            start = time.perf_counter()
            try:
                batch, summaries = self.collect_batch()
            except BuildError:
                if self._best_any is not None:
                    break  # nothing to learn (single-leaf tree): done
                raise
            ppo_stats = self.learner.update(batch)
            iteration += 1
            stats = self._record_iteration(iteration, summaries, ppo_stats,
                                           time.perf_counter() - start)
            if self.config.convergence_patience is not None:
                if stats.best_objective < self._last_best - 1e-9:
                    self._last_best = stats.best_objective
                    self._stale_iterations = 0
                else:
                    self._stale_iterations += 1
                    if self._stale_iterations >= self.config.convergence_patience:
                        break
        return self.result()

    def _record_iteration(self, iteration: int,
                          summaries: List[RolloutSummary],
                          ppo_stats: PPOStats, wall_time: float) -> IterationStats:
        best = self._best_rollout or self._best_any
        stats = IterationStats(
            iteration=iteration,
            timesteps_total=self._timesteps_total,
            num_rollouts=len(summaries),
            mean_reward=float(np.mean([s.reward for s in summaries])),
            best_objective=best.objective if best else float("inf"),
            best_time=best.root_reward.time if best else float("inf"),
            best_space=best.root_reward.space if best else float("inf"),
            policy_loss=ppo_stats.policy_loss,
            value_loss=ppo_stats.value_loss,
            entropy=ppo_stats.entropy,
            kl=ppo_stats.kl,
            wall_time_s=wall_time,
        )
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(self) -> TrainingResult:
        """Package the best tree found so far (training may continue after).

        Complete trees are preferred; if every rollout so far was truncated,
        the best truncated tree is returned (it is still a correct, if slow,
        classifier).
        """
        best = self._best_rollout or self._best_any
        if best is None:
            raise BuildError("train() has not produced any tree yet")
        return TrainingResult(
            best_tree=best.tree,
            best_objective=best.objective,
            best_time=best.root_reward.time,
            best_space=best.root_reward.space,
            history=list(self.history),
            timesteps_total=self._timesteps_total,
        )

    def sample_trees(self, count: int, deterministic: bool = False
                     ) -> List[DecisionTree]:
        """Draw trees from the current (stochastic) policy — Figure 6."""
        trees = []
        for _ in range(count):
            result = self.env.rollout(
                self.policy, deterministic=deterministic, collect_experience=False
            )
            trees.append(result.tree)
        return trees

    # ------------------------------------------------------------------ #
    # Checkpointing (exact resume of an interrupted run)
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path]) -> None:
        """Checkpoint model, optimiser, and learner state for exact resume.

        :meth:`restore` continues training with byte-identical trajectories:
        shard seeds derive from the persisted round counter, the PPO
        minibatch RNG state and adaptive KL coefficient are saved, and the
        best-tree records (trees included) survive the round trip.
        """
        trainer_state = {
            "config": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self.config).items()
            },
            "timesteps_total": self._timesteps_total,
            "collect_rounds": self._collect_rounds,
            "stale_iterations": self._stale_iterations,
            "last_best": self._last_best if self._last_best != float("inf")
            else None,
            "kl_coeff": self.learner._kl_coeff,
            "learner_rng": self.learner._rng.bit_generator.state,
            "history": [stats.as_dict() for stats in self.history],
            "best_rollout": self._rollout_record(self._best_rollout),
            "best_any": self._rollout_record(self._best_any),
        }
        save_checkpoint(self.model, path, optimizer=self.learner.optimizer,
                        trainer_state=trainer_state)

    @staticmethod
    def _rollout_record(result: Optional[RolloutResult]) -> Optional[Dict]:
        if result is None:
            return None
        return {
            "tree": tree_to_dict(result.tree),
            "time": result.root_reward.time,
            "space": result.root_reward.space,
            "reward": result.root_reward.reward,
            "num_steps": result.num_steps,
            "truncated": result.truncated,
        }

    def _rollout_from_record(self, record: Optional[Dict]
                             ) -> Optional[RolloutResult]:
        if record is None:
            return None
        tree = tree_from_dict(record["tree"], self.ruleset)
        return RolloutResult(
            tree=tree,
            batch=None,
            root_reward=RewardComponents(
                time=record["time"], space=record["space"],
                reward=record["reward"],
            ),
            num_steps=record["num_steps"],
            truncated=record["truncated"],
            overflowing=record["truncated"] and tree.has_overflowing_leaves(),
        )

    @classmethod
    def restore(cls, path: Union[str, Path], ruleset: RuleSet,
                config: Optional[NeuroCutsConfig] = None,
                rollout_backend: Optional[str] = None) -> "NeuroCutsTrainer":
        """Rebuild a trainer from :meth:`save` and continue exactly.

        The training configuration is restored from the checkpoint when
        ``config`` is omitted — that is the exact-resume path.  Passing a
        ``config`` overrides the saved one (e.g. to change the worker count
        on different hardware); overriding seed-relevant fields changes the
        continuation trajectory.

        Checkpoints of the retired pipelined loop restore too: their
        weight-generation stamp and lag record are ignored.  One that holds
        a collected round that was never trained (``prefetch``) cannot
        continue exactly and is refused.
        """
        bundle = load_training_checkpoint(path)
        if bundle.trainer_state is None:
            raise CheckpointError(
                f"{path} is a model-only checkpoint; save it with "
                f"NeuroCutsTrainer.save() to resume training"
            )
        if bundle.trainer_state.get("prefetch") is not None:
            raise CheckpointError(
                f"{path} holds a pipelined 'prefetch' round that was never "
                f"trained; the synchronous loop cannot resume it exactly"
            )
        if config is None:
            saved = bundle.trainer_state.get("config")
            if saved is not None:
                config = _config_from_record(saved)
        trainer = cls(ruleset, config, rollout_backend=rollout_backend)
        trainer.model.load_parameters(bundle.model.parameters())
        bundle.restore_optimizer(trainer.learner.optimizer)
        state = bundle.trainer_state
        trainer._timesteps_total = int(state["timesteps_total"])
        trainer._collect_rounds = int(state["collect_rounds"])
        trainer._stale_iterations = int(state.get("stale_iterations", 0))
        last_best = state.get("last_best")
        trainer._last_best = float("inf") if last_best is None else float(last_best)
        trainer.learner._kl_coeff = float(state["kl_coeff"])
        trainer.learner._rng.bit_generator.state = state["learner_rng"]
        trainer.history = [IterationStats(**stats) for stats in state["history"]]
        trainer._best_rollout = trainer._rollout_from_record(state["best_rollout"])
        trainer._best_any = trainer._rollout_from_record(state["best_any"])
        return trainer


def _config_from_record(saved: Dict) -> NeuroCutsConfig:
    """Rebuild a checkpoint's config, including one saved by older code.

    Older checkpoints carry fields the config no longer has, and each is
    dropped.  ``rollout_backend`` is now the trainer's own argument and
    shards do not depend on it.  ``async_collection`` and
    ``max_weight_lag`` selected the retired pipelined loop; a pipelined
    checkpoint without a pending round continues synchronously.
    """
    saved = dict(saved)
    for legacy in ("rollout_backend", "async_collection", "max_weight_lag"):
        saved.pop(legacy, None)
    return NeuroCutsConfig(**{
        key: tuple(value) if key == "hidden_sizes" else value
        for key, value in saved.items()
    })


class NeuroCutsBuilder(TreeBuilder):
    """Adapter exposing NeuroCuts through the common TreeBuilder interface.

    This is what the figure benchmarks use so NeuroCuts slots into the same
    comparison harness as the baseline heuristics.
    """

    name = "NeuroCuts"

    def __init__(self, config: Optional[NeuroCutsConfig] = None,
                 max_iterations: Optional[int] = None) -> None:
        self.config = config or NeuroCutsConfig()
        self.max_iterations = max_iterations
        self.last_result: Optional[TrainingResult] = None

    def build(self, ruleset: RuleSet) -> TreeClassifier:
        with NeuroCutsTrainer(ruleset, self.config) as trainer:
            self.last_result = trainer.train(max_iterations=self.max_iterations)
        return self.last_result.best_classifier()
