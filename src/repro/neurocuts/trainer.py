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

Shard collection is a pure function of (weights, seed, budget), so for a
fixed configuration the serial backend and a one-worker process pool produce
byte-identical training histories.  Process pools publish each snapshot once
through :mod:`repro.neurocuts.broadcast` and ship a tiny handle per shard.

There is one training loop.  By default a round is submitted and gathered
in the iteration that trains it.  With ``config.async_collection`` the loop
keeps one round in flight: the next round is submitted on the *pre-update*
snapshot before the PPO update runs, so workers roll while the learner
learns, and every batch after the first is exactly one weight generation
stale — stamped, checked, and recorded in ``collection_lags``.  A round
still in flight when the loop exits is gathered into a prefetch that the
next ``train`` call trains first and checkpoints persist, so split calls
and resumed runs continue byte-identically.
"""

from __future__ import annotations

import dataclasses
import time
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
from repro.executors import ProcessPoolExecutor, RolloutExecutor, TaskHandle
from repro.neurocuts.broadcast import WeightBroadcast, shared_memory_available
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
class _InFlightRound:
    """One submitted-but-ungathered collection round."""

    handles: List[TaskHandle]
    #: Weight generation the round's snapshot was taken at (staleness stamp).
    generation: int


@dataclass
class _ReadyRound:
    """A gathered round waiting to be trained on.

    Its steps are already counted and its best-tree candidates already
    folded — exactly the state an uninterrupted run is in between gathering
    a round and running its PPO update — so a checkpoint carrying one
    resumes byte-identically.
    """

    batch: SampleBatch
    summaries: List[RolloutSummary]
    generation: int


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
        self._executor: Optional[RolloutExecutor] = None
        self._session: Optional[int] = None
        #: Weight generations applied so far (== PPO updates run).  Stamps
        #: every round so staleness is asserted, never assumed.
        self._weight_generation = 0
        #: Per-iteration staleness (in weight generations) of the batch each
        #: PPO update trained on: 0 synchronous, 1 once a pipeline primes.
        self.collection_lags: List[int] = []
        #: The round submitted ahead of the update (async collection only).
        self._inflight: Optional[_InFlightRound] = None
        #: A gathered-but-untrained round carried across train() calls and
        #: checkpoint resumes.
        self._prefetch: Optional[_ReadyRound] = None
        #: Shared-memory weight publisher (process-pool backends only).
        self._broadcast: Optional[WeightBroadcast] = None

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #

    @property
    def num_rollout_workers(self) -> int:
        """How many rollout shards each batch is scattered over."""
        return self.config.num_rollout_workers

    def _ensure_executor(self) -> RolloutExecutor:
        if self._executor is None:
            self._executor, self._session = make_rollout_executor(
                self.ruleset, self.config, self.config.num_rollout_workers,
                backend=self._rollout_backend,
            )
        return self._executor

    def close(self) -> None:
        """Shut down the trainer's executor (idempotent)."""
        # Drain any in-flight round before tearing anything down:
        # abandoned tasks would otherwise race the shared-memory unlink (and
        # a pool shutdown) below.  Results are discarded; the gathered
        # prefetch (if any) is kept so a save() after close() stays exact.
        if self._inflight is not None:
            for handle in self._inflight.handles:
                try:
                    handle.result()
                except Exception:  # noqa: BLE001 - draining, not consuming
                    pass
            self._inflight = None
        if self._broadcast is not None:
            self._broadcast.close()
            self._broadcast = None
        # Serial sessions build their rollout worker in this process; drop
        # it so closed trainers do not accumulate env + model replicas.
        discard_session(self._session)
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._session = None

    def __enter__(self) -> "NeuroCutsTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rollout collection (the scatter/gather half of the learner loop)
    # ------------------------------------------------------------------ #

    def _publish_weights(self, executor: RolloutExecutor):
        """Snapshot the model for scatter: inline ndarray or shm handle.

        Process pools publish the flat vector once into shared memory and
        ship a tiny :class:`~repro.neurocuts.broadcast.WeightHandle` per
        shard (stamped with the round index it serves).  Serial and thread
        backends keep the inline ndarray — the same bytes either way, so
        histories are byte-identical across the two transports.
        """
        flat = broadcast_weights(self.model)
        if not (isinstance(executor, ProcessPoolExecutor)
                and shared_memory_available()):
            return flat
        if self._broadcast is None:
            self._broadcast = WeightBroadcast(capacity=len(flat))
        return self._broadcast.publish(flat, generation=self._collect_rounds)

    def _build_requests(self, executor: RolloutExecutor) -> List[ShardRequest]:
        """Scatter plan for the next collection round (round index seeds it)."""
        remaining = self.config.max_timesteps_total - self._timesteps_total
        total_budget = max(1, min(self.config.timesteps_per_batch, remaining))
        num_workers = max(1, self.num_rollout_workers)
        budgets = shard_budgets(total_budget, num_workers)
        seeds = shard_seeds(self.config.seed, self._collect_rounds, num_workers)
        weights = self._publish_weights(executor)
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

    def _submit_round(self) -> _InFlightRound:
        """Scatter the next collection round without waiting on its shards."""
        assert self._inflight is None, "at most one round may be in flight"
        executor = self._ensure_executor()
        return _InFlightRound(
            handles=[executor.submit(_collect_shard, request)
                     for request in self._build_requests(executor)],
            generation=self._weight_generation,
        )

    def _gather(self, inflight: _InFlightRound) -> _ReadyRound:
        """Block on a submitted round's shards and fold them."""
        shards = [handle.result() for handle in inflight.handles]
        batch, summaries = self._fold_shards(shards)
        return _ReadyRound(batch=batch, summaries=summaries,
                           generation=inflight.generation)

    def collect_batch(self) -> tuple[SampleBatch, List[RolloutSummary]]:
        """Collect one PPO batch worth of rollouts on the current weights.

        Broadcasts the weights, scatters per-worker seeds and budgets,
        gathers the shards, folds their best-tree candidates into the global
        best tracking, and concatenates the experience.
        """
        ready = self._gather(self._submit_round())
        return ready.batch, ready.summaries

    def _next_round(self) -> _ReadyRound:
        """The round to train on: the prefetch, the one in flight, or one
        collected now on the current weights."""
        if self._prefetch is not None:
            ready, self._prefetch = self._prefetch, None
            return ready
        if self._inflight is not None:
            inflight, self._inflight = self._inflight, None
            return self._gather(inflight)
        batch, summaries = self.collect_batch()
        return _ReadyRound(batch=batch, summaries=summaries,
                           generation=self._weight_generation)

    def _drain_inflight(self) -> None:
        """Gather a leftover in-flight round into the prefetch stash.

        Called when the training loop exits with a round in flight: the
        round's steps are counted and its best candidates folded (exactly
        the state between gathering and training), and the gathered batch is
        carried in ``self._prefetch`` — consumed by the next ``train`` call
        and persisted by :meth:`save`, so nothing collected is ever lost.
        """
        if self._inflight is not None:
            inflight, self._inflight = self._inflight, None
            try:
                self._prefetch = self._gather(inflight)
            except BuildError:
                # The drained round had no trainable steps; its (optimal)
                # tree already reached the best tracking via the fold.
                pass

    def _consider_best(self, result: RolloutResult) -> None:
        """Track the best complete (non-overflowing) tree seen so far."""
        if self._best_any is None or result.objective < self._best_any.objective:
            self._best_any = result
        if result.truncated and result.tree.has_overflowing_leaves():
            return
        if self._best_rollout is None or result.objective < self._best_rollout.objective:
            self._best_rollout = result

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #

    def train(self, max_iterations: Optional[int] = None) -> TrainingResult:
        """Run training until the timestep budget (or iteration cap) is hit.

        Each iteration trains one round: a stashed prefetch first, else the
        round in flight, else one collected now.  With
        ``config.async_collection`` the iteration then submits the next
        round on the *pre-update* snapshot while budget remains, so workers
        roll during the update and the batch trained next is one weight
        generation stale — checked against the stamp, never assumed.  A
        round still in flight when the loop exits (budget, iteration cap,
        or convergence) is drained into the prefetch.

        Convergence-patience counters live on the trainer (not this call),
        so repeated ``train`` calls — and checkpoint resumes — continue the
        same trajectory an uninterrupted run would follow.
        """
        total = self.config.max_timesteps_total
        iteration = len(self.history)
        while self._timesteps_total < total or self._prefetch is not None:
            if max_iterations is not None and iteration >= max_iterations:
                break
            start = time.perf_counter()
            try:
                ready = self._next_round()
            except BuildError:
                if self._best_any is not None:
                    break  # nothing to learn (single-leaf tree): done
                raise
            # Not gated on max_iterations: a capped run leaves the round in
            # flight (drained to the prefetch below), so a later train()
            # call continues byte-identically with an uncapped run.
            if self.config.async_collection and self._timesteps_total < total:
                self._inflight = self._submit_round()
            lag = self._weight_generation - ready.generation
            if lag > 1:
                raise BuildError(
                    f"batch collected at weight generation {ready.generation} "
                    f"trained at generation {self._weight_generation}: the "
                    f"loop holds at most one round in flight (lag <= 1)"
                )
            ppo_stats = self.learner.update(ready.batch)
            self._weight_generation += 1
            self.collection_lags.append(lag)
            iteration += 1
            stats = self._record_iteration(iteration, ready.summaries,
                                           ppo_stats,
                                           time.perf_counter() - start)
            if self.config.convergence_patience is not None:
                if stats.best_objective < self._last_best - 1e-9:
                    self._last_best = stats.best_objective
                    self._stale_iterations = 0
                else:
                    self._stale_iterations += 1
                    if self._stale_iterations >= self.config.convergence_patience:
                        break
        self._drain_inflight()
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
        best-tree records (trees included) survive the round trip, as do
        the weight-generation stamp and any gathered-but-untrained prefetch
        round, so a resumed pipeline continues exactly where an
        uninterrupted one would be.
        """
        # A checkpoint must never capture a half-gathered round: fold any
        # in-flight round into the prefetch first (same transition train()
        # performs on exit).
        self._drain_inflight()
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
            "weight_generation": self._weight_generation,
            "collection_lags": list(self.collection_lags),
            "prefetch": self._prefetch_record(self._prefetch),
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

    @staticmethod
    def _prefetch_record(round_: Optional[_ReadyRound]) -> Optional[Dict]:
        """Serialise the prefetch round as JSON-safe nested lists.

        ``json`` round-trips float64 exactly (shortest-repr encoding), so a
        restored prefetch batch is byte-identical to the saved one.
        """
        if round_ is None:
            return None
        batch = round_.batch
        return {
            "generation": round_.generation,
            "summaries": [dataclasses.asdict(s) for s in round_.summaries],
            "batch": {
                "obs": batch.obs.tolist(),
                "actions": batch.actions.tolist(),
                "returns": batch.returns.tolist(),
                "value_preds": batch.value_preds.tolist(),
                "logp_old": batch.logp_old.tolist(),
                "action_masks": None if batch.action_masks is None else
                [mask.tolist() for mask in batch.action_masks],
            },
        }

    @staticmethod
    def _prefetch_from_record(record: Optional[Dict]) -> Optional[_ReadyRound]:
        if record is None:
            return None
        raw = record["batch"]
        masks = raw.get("action_masks")
        batch = SampleBatch(
            obs=np.array(raw["obs"], dtype=np.float64),
            actions=np.array(raw["actions"], dtype=np.int64),
            returns=np.array(raw["returns"], dtype=np.float64),
            value_preds=np.array(raw["value_preds"], dtype=np.float64),
            logp_old=np.array(raw["logp_old"], dtype=np.float64),
            action_masks=None if masks is None else
            [np.array(mask, dtype=bool) for mask in masks],
        )
        return _ReadyRound(
            batch=batch,
            summaries=[RolloutSummary(**s) for s in record["summaries"]],
            generation=int(record["generation"]),
        )

    def _rollout_from_record(self, record: Optional[Dict]
                             ) -> Optional[RolloutResult]:
        if record is None:
            return None
        return RolloutResult(
            tree=tree_from_dict(record["tree"], self.ruleset),
            batch=None,
            root_reward=RewardComponents(
                time=record["time"], space=record["space"],
                reward=record["reward"],
            ),
            num_steps=record["num_steps"],
            truncated=record["truncated"],
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
        """
        bundle = load_training_checkpoint(path)
        if bundle.trainer_state is None:
            raise CheckpointError(
                f"{path} is a model-only checkpoint; save it with "
                f"NeuroCutsTrainer.save() to resume training"
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
        # Fleet-trainer state (absent in pre-async checkpoints: default to
        # the synchronous interpretation — one generation per update, no
        # prefetch in the pipeline).
        trainer._weight_generation = int(
            state.get("weight_generation", len(trainer.history)))
        trainer.collection_lags = [
            int(lag) for lag in state.get("collection_lags", [])]
        trainer._prefetch = trainer._prefetch_from_record(
            state.get("prefetch"))
        return trainer


def _config_from_record(saved: Dict) -> NeuroCutsConfig:
    """Rebuild a checkpoint's config, including one saved by older code.

    Older checkpoints carry two fields the config no longer has.
    ``rollout_backend`` is now the trainer's own argument and shards do not
    depend on it, so it is dropped.  ``max_weight_lag=0`` made a pipelined
    run submit each round after its update — the synchronous loop — so it
    restores as ``async_collection=False``; a lag of 1 is what
    ``async_collection`` means now.
    """
    saved = dict(saved)
    saved.pop("rollout_backend", None)
    if saved.pop("max_weight_lag", 1) == 0:
        saved["async_collection"] = False
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
