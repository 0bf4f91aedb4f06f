"""Sharded rollout workers: the actor half of actor/learner training.

Figure 7 of the paper shows NeuroCuts training scaling near-linearly by
collecting decision-tree rollouts on many parallel workers.  This module
implements that split:

* :class:`RolloutWorker` owns an environment plus a policy replica and turns
  a broadcast weight snapshot into a timestep-budgeted shard of experience.
  ``collect`` is a *pure function* of ``(weights, seed, budget)`` — the
  worker reloads the snapshot and reseeds its policy every call — so results
  are identical no matter which backend (or which process of a pool) runs
  the shard.
* :class:`RolloutShard` is what travels back to the learner: the
  concatenated :class:`~repro.rl.batch.SampleBatch`, lightweight per-rollout
  summaries for iteration statistics, and at most two best-tree candidates
  (complete and overall) so the learner's best-tree tracking stays exact
  without shipping every tree across the process boundary.
* :func:`make_rollout_executor` builds the trainer's executor through
  :func:`repro.executors.make_executor` (a ``concurrent.futures``
  executor): worker state is built once per process by the executor's
  initializer and served for the lifetime of the persistent pool, so each
  training iteration only ships a flat weight vector and a seed per shard.
"""

from __future__ import annotations

import itertools
import os
import dataclasses
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.executors import make_executor
from repro.nn.model import ActorCriticMLP
from repro.rl.batch import SampleBatch
from repro.rl.policy import Policy
from repro.rules.ruleset import RuleSet
from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.env import NeuroCutsEnv, RolloutResult


@dataclass(frozen=True)
class RolloutSummary:
    """Lightweight per-rollout record (no tree attached)."""

    reward: float
    objective: float
    num_steps: int
    truncated: bool


@dataclass(frozen=True)
class ShardRequest:
    """One unit of scattered work: collect ``budget`` timesteps of rollouts.

    Attributes:
        session: identifies which worker state (ruleset + config) serves the
            request; guards against stale per-process worker caches.
        weights: the learner's policy snapshot as a flat float64 vector,
            carried inline on every backend (a process pool pickles one
            copy per shard).
        seed: entropy for this shard's action sampling (scattered per worker
            per iteration by the learner).
        budget: minimum number of environment timesteps to collect; whole
            rollouts are collected, so shards overshoot by at most one
            rollout.
    """

    session: int
    weights: np.ndarray
    seed: int
    budget: int


@dataclass
class RolloutShard:
    """Everything one worker sends back to the learner for one iteration."""

    batch: Optional[SampleBatch]
    summaries: List[RolloutSummary]
    num_steps: int
    #: Best rollout of the shard whose tree completed within budget (and has
    #: no overflowing leaves), with its tree attached; None if every rollout
    #: of the shard was truncated-and-overflowing.
    best_complete: Optional[RolloutResult]
    #: Best rollout of the shard overall (truncated trees included).
    best_any: Optional[RolloutResult]


class RolloutWorker:
    """Owns an env + policy replica; collects timestep-budgeted shards.

    The worker is built once (per process, for pool backends) from the
    ruleset and config, which is the expensive part; every subsequent
    :meth:`collect` only loads a weight snapshot and reseeds.
    """

    def __init__(self, ruleset: RuleSet, config: NeuroCutsConfig) -> None:
        self.config = config
        self.env = NeuroCutsEnv(ruleset, config)
        # Every collect() loads the learner's weights first, so the replica
        # is allocated, not initialised.
        self.model = ActorCriticMLP.allocate(
            obs_size=self.env.observation_size,
            action_sizes=self.env.action_sizes,
            hidden_sizes=config.hidden_sizes,
            activation=config.activation,
        )
        self.policy = Policy(self.model, self.env.action_space.space,
                             seed=config.seed)

    def load_weights(self, flat_weights: np.ndarray) -> None:
        """Install a broadcast flat weight snapshot into the policy replica."""
        np.copyto(self.model.flat, flat_weights)

    def collect(self, flat_weights: np.ndarray, seed: int,
                budget: int) -> RolloutShard:
        """Collect at least ``budget`` timesteps of rollouts from a snapshot.

        Deterministic: the same (weights, seed, budget) produces the same
        shard on any backend.
        """
        self.load_weights(flat_weights)
        self.policy.reseed(seed)
        batches: List[SampleBatch] = []
        summaries: List[RolloutSummary] = []
        best_complete: Optional[RolloutResult] = None
        best_any: Optional[RolloutResult] = None
        steps = 0
        while steps < budget:
            result = self.env.rollout(self.policy)
            steps += result.num_steps
            summaries.append(
                RolloutSummary(
                    reward=result.root_reward.reward,
                    objective=result.objective,
                    num_steps=result.num_steps,
                    truncated=result.truncated,
                )
            )
            if result.batch is not None:
                batches.append(result.batch)
            if best_any is None or result.objective < best_any.objective:
                best_any = result
            if not result.overflowing:
                if best_complete is None or \
                        result.objective < best_complete.objective:
                    best_complete = result
            if result.num_steps == 0:
                # A trivially complete tree (ruleset fits one leaf) yields no
                # decisions; looping further would never fill the budget.
                # The rollout is still recorded so the (optimal) tree reaches
                # the learner's best tracking.
                break
        batch = SampleBatch.concat(batches) if batches else None

        def _candidate(result: Optional[RolloutResult]) -> Optional[RolloutResult]:
            # The learner only reads tree/root_reward/num_steps/truncated
            # from best candidates; shipping their per-rollout batch again
            # (it is already inside the concatenated shard batch) would just
            # bloat the pickled reply.
            if result is None or result.batch is None:
                return result
            return dataclasses.replace(result, batch=None)

        return RolloutShard(
            batch=batch,
            summaries=summaries,
            num_steps=steps,
            best_complete=_candidate(best_complete),
            best_any=_candidate(best_any),
        )


# --------------------------------------------------------------------------- #
# Executor integration: per-process worker state + top-level task functions
# --------------------------------------------------------------------------- #

#: Executor backends a trainer may build (None = serial for one worker, a
#: persistent process pool otherwise).
ROLLOUT_BACKENDS: Tuple[Optional[str], ...] = (None, "serial", "process")

#: Worker state of this process, keyed by session id.  A pool process holds
#: its initializer's entry; the learner process holds one per live
#: serial-backend trainer.
_WORKERS: Dict[int, RolloutWorker] = {}

#: Session ids unique within the learner process (workers echo them back).
_session_counter = itertools.count(os.getpid() << 20)


def discard_session(session: Optional[int]) -> None:
    """Drop this process's worker state for a finished session.

    Serial-backend sessions build their worker in the learner process;
    trainers call this from ``close`` so the env + model replica does not
    outlive them.  Pool processes die with the trainer's executor.
    """
    if session is not None:
        _WORKERS.pop(session, None)


def _init_worker(session: int, ruleset: RuleSet,
                 config: NeuroCutsConfig) -> None:
    """Executor initializer: build this process's rollout worker once."""
    _WORKERS[session] = RolloutWorker(ruleset, config)


def _collect_shard(request: ShardRequest) -> RolloutShard:
    """Top-level (picklable) task: serve one shard from per-process state."""
    worker = _WORKERS.get(request.session)
    if worker is None:
        raise RuntimeError(
            f"rollout session {request.session} not initialised in this "
            f"process; the executor must run _init_worker first"
        )
    return worker.collect(request.weights, request.seed, request.budget)


def make_rollout_executor(ruleset: RuleSet, config: NeuroCutsConfig,
                          num_workers: int,
                          backend: Optional[str] = None
                          ) -> Tuple[Executor, int]:
    """Build an executor whose processes each own a ready rollout worker.

    Returns ``(executor, session)``; shard requests must carry the session
    id so tasks find the matching worker state.
    """
    session = next(_session_counter)
    executor = make_executor(
        num_workers,
        backend=backend,
        initializer=_init_worker,
        initargs=(session, ruleset, config),
    )
    return executor, session


def broadcast_weights(model: ActorCriticMLP) -> np.ndarray:
    """Snapshot a learner model as the flat vector shards are served from."""
    return model.flat.copy()


def shard_budgets(total_budget: int, num_workers: int) -> List[int]:
    """Split a batch budget across workers (first shards take the remainder).

    Every worker gets at least one timestep of budget so each shard contains
    at least one rollout.
    """
    if total_budget < 1:
        raise ValueError("total_budget must be >= 1")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    base, remainder = divmod(total_budget, num_workers)
    return [max(1, base + (1 if i < remainder else 0))
            for i in range(num_workers)]


def shard_seeds(root_seed: int, iteration: int, num_workers: int) -> List[int]:
    """Deterministic per-worker seeds for one collection round.

    Derived by hashing (root_seed, iteration, worker) through a
    ``SeedSequence`` so streams are independent across workers and
    iterations but identical across backends and resumed runs.
    """
    return [
        int(np.random.SeedSequence(entropy=root_seed,
                                   spawn_key=(iteration, worker))
            .generate_state(1, dtype=np.uint64)[0])
        for worker in range(num_workers)
    ]
