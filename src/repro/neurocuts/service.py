"""Trainer-as-a-service: NeuroCuts retrains as self-contained tasks.

The serving layer's retrain loop (Section 4.2's "re-runs training" case)
needs to run a whole NeuroCuts training job *behind* the live path — on a
background thread, on a process pool, or inline for deterministic tests.
This module packages one training run as a pure task: a picklable
:class:`RetrainRequest` in, a picklable :class:`RetrainResponse` out, with
:func:`run_retrain` as the module-level entrypoint any
:class:`repro.executors.RolloutExecutor` backend can execute.

The response carries the best tree in its serialised (dict) form rather
than as live ``Node`` objects, so the same payload crosses process
boundaries and thread boundaries identically; callers rebuild it against
the ruleset snapshot the request was made from (:meth:`RetrainResponse.classifier`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.trainer import NeuroCutsTrainer
from repro.rules.ruleset import RuleSet
from repro.tree.lookup import TreeClassifier
from repro.tree.serialize import tree_from_dict, tree_to_dict


def default_retrain_config(timesteps: int = 3_000,
                           seed: int = 0,
                           **overrides) -> NeuroCutsConfig:
    """A training configuration sized for *serving-loop* retrains.

    Retrains triggered by rule churn trade ultimate tree quality for
    turnaround: a small policy network and a tight timestep budget so the
    new tree lands while the workload that triggered it is still relevant.
    A retrain job collects its rollouts with one worker.
    """
    defaults = dict(
        hidden_sizes=(64, 64),
        max_timesteps_total=timesteps,
        timesteps_per_batch=max(200, timesteps // 6),
        max_timesteps_per_rollout=400,
        max_tree_depth=40,
        num_sgd_iters=5,
        sgd_minibatch_size=128,
        learning_rate=3e-4,
        convergence_patience=4,
        seed=seed,
    )
    defaults.update(overrides)
    return NeuroCutsConfig(**defaults)


@dataclass(frozen=True)
class RetrainRequest:
    """One retrain job: (who, what ruleset snapshot, how to train).

    Attributes:
        tenant_id: opaque caller tag, echoed back in the response so a
            controller juggling several jobs can route completions.
        ruleset: the ruleset snapshot to train against.  The resulting tree
            is exact for *this* snapshot; updates that land while the job
            runs must be replayed by the caller on installation.
        config: full training configuration (see
            :func:`default_retrain_config` for serving-sized defaults).
        max_iterations: optional cap on PPO iterations (handy in tests).
    """

    tenant_id: str
    ruleset: RuleSet
    config: NeuroCutsConfig
    max_iterations: Optional[int] = None


@dataclass
class RetrainResponse:
    """Outcome of one retrain job, in fully picklable form."""

    tenant_id: str
    #: The best tree found, serialised with :func:`repro.tree.serialize.tree_to_dict`.
    tree_dict: Dict = field(repr=False)
    best_objective: float = 0.0
    timesteps_total: int = 0
    iterations: int = 0
    wall_seconds: float = 0.0

    def classifier(self, ruleset: RuleSet) -> TreeClassifier:
        """Rebuild the trained tree against the request's ruleset snapshot.

        ``ruleset`` must be the snapshot the request carried (trees
        reference rules by priority, which is only meaningful within the
        ruleset they were trained on).
        """
        tree = tree_from_dict(self.tree_dict, ruleset)
        return TreeClassifier(ruleset, [tree], name=f"retrain-{self.tenant_id}")


def run_retrain(request: RetrainRequest) -> RetrainResponse:
    """Execute one retrain job (the executor-facing task function).

    Runs a complete NeuroCuts training session on the request's ruleset
    snapshot and returns the best tree found.  Pure with respect to the
    request — no shared state — so it behaves identically on the serial,
    thread, and process executor backends.
    """
    started = time.perf_counter()
    with NeuroCutsTrainer(request.ruleset, request.config) as trainer:
        result = trainer.train(max_iterations=request.max_iterations)
    return RetrainResponse(
        tenant_id=request.tenant_id,
        tree_dict=tree_to_dict(result.best_tree),
        best_objective=result.best_objective,
        timesteps_total=result.timesteps_total,
        iterations=len(result.history),
        wall_seconds=time.perf_counter() - started,
    )
