"""The one training loop: every iteration collects on the current weights.

``NeuroCutsTrainer.train`` used to be two loops — a synchronous one and a
pipelined one — then one loop for both modes, with process pools reading
the weights from shared memory.  The digests below were computed by the
two-loop trainer's synchronous mode (same configs, same rulesets), so they
pin that none of those rewrites changed a history or a learned tree, at one
and two workers, on either backend, and across split ``train`` calls.  The
same digests referee checkpoints written by the pipelined trainer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.exceptions import CheckpointError
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from repro.nn.checkpoints import load_training_checkpoint, save_checkpoint
from repro.tree.serialize import tree_to_dict

#: SHA-256 of (history without wall time, collection lags, timesteps, best
#: objective, best tree), keyed (pipelined, workers) as first computed; only
#: the synchronous rows remain.
DIGESTS = {
    (False, 1): "362fde4490c6765d821d2f820c71b8f334c0146bad629478b5426ad6ccafd51b",
    (False, 2): "de62cc4a05320b8a4fe3f4b78fb32034cb0303cc8c5e39bc8fd9cd2e3ff89290",
}


def _config(**overrides) -> NeuroCutsConfig:
    defaults = dict(hidden_sizes=(8, 8), max_timesteps_total=600,
                    timesteps_per_batch=200, max_timesteps_per_rollout=100,
                    leaf_threshold=8, seed=11)
    defaults.update(overrides)
    return NeuroCutsConfig.fast_test_config(**defaults)


def _digest(result) -> str:
    rows = [{k: v for k, v in stats.as_dict().items() if k != "wall_time_s"}
            for stats in result.history]
    # Every batch is trained on the weights it was collected with: the lag
    # record the digests were computed over is all zeros.
    payload = {"history": rows, "lags": [0] * len(result.history),
               "steps": result.timesteps_total,
               "best": result.best_objective,
               "tree": tree_to_dict(result.best_tree)}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workers, backend",
                         [(1, "serial"), (2, "serial"), (2, "process")])
def test_history_matches_the_two_loop_trainer(small_acl_ruleset,
                                              workers, backend):
    config = _config(num_rollout_workers=workers)
    with NeuroCutsTrainer(small_acl_ruleset, config,
                          rollout_backend=backend) as trainer:
        assert _digest(trainer.train()) == DIGESTS[False, workers]
    with NeuroCutsTrainer(small_acl_ruleset, config,
                          rollout_backend=backend) as trainer:
        trainer.train(max_iterations=1)
        assert _digest(trainer.train()) == DIGESTS[False, workers]


def _pending_round(trainer: NeuroCutsTrainer) -> dict:
    """A collected round in the pipelined trainer's ``prefetch`` format."""
    batch, summaries = trainer.collect_batch()
    arrays = ("obs", "actions", "returns", "value_preds", "logp_old")
    record = {name: getattr(batch, name).tolist() for name in arrays}
    record["action_masks"] = [mask.tolist() for mask in batch.action_masks]
    return {"generation": 1, "batch": record,
            "summaries": [dataclasses.asdict(s) for s in summaries]}


def _legacy_checkpoint(ruleset, path, legacy_config: dict,
                       pending: bool = False) -> None:
    """Save a one-iteration checkpoint in the pipelined trainer's shape:
    ``legacy_config`` merged into the saved config, its weight stamp and
    lag record, and a ``prefetch`` round if ``pending``."""
    with NeuroCutsTrainer(ruleset, _config()) as first:
        first.train(max_iterations=1)
        first.save(path)
        state = load_training_checkpoint(path).trainer_state
        state["config"].update(legacy_config)
        state.update(weight_generation=1, collection_lags=[0],
                     prefetch=_pending_round(first) if pending else None)
        save_checkpoint(first.model, path, optimizer=first.learner.optimizer,
                        trainer_state=state)


@pytest.mark.parametrize("legacy_config", [
    # The pipelined trainer, synchronous mode.
    {"async_collection": False},
    # Older still: a lag-0 pipeline submitted each round after its update.
    {"async_collection": True, "max_weight_lag": 0,
     "rollout_backend": "process"},
], ids=["synchronous", "lag-zero"])
def test_pipelined_trainer_checkpoint_resumes_exactly(small_acl_ruleset,
                                                      tmp_path, legacy_config):
    path = tmp_path / "legacy.npz"
    _legacy_checkpoint(small_acl_ruleset, path, legacy_config)
    with NeuroCutsTrainer.restore(path, small_acl_ruleset) as resumed:
        assert _digest(resumed.train()) == DIGESTS[False, 1]


def test_checkpoint_with_an_untrained_round_is_refused(small_acl_ruleset,
                                                       tmp_path):
    path = tmp_path / "pending.npz"
    _legacy_checkpoint(small_acl_ruleset, path, {"async_collection": True},
                       pending=True)
    with pytest.raises(CheckpointError, match="prefetch"):
        NeuroCutsTrainer.restore(path, small_acl_ruleset)
