"""The one training loop: synchronous and pipelined collection share it.

``NeuroCutsTrainer.train`` used to be two loops — a synchronous one and a
pipelined one behind ``async_collection`` — and accepted executors built
elsewhere.  The digests below were computed by that two-loop trainer (same
configs, same rulesets), so they pin that merging the loops and making the
executor the trainer's own changed no history, lag record or learned tree,
in either mode, at one and two workers, on either backend, and across split
``train`` calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from repro.tree.serialize import tree_to_dict

#: SHA-256 of (history without wall time, collection lags, timesteps, best
#: objective, best tree) per (async_collection, workers), computed before
#: the loops were merged.
DIGESTS = {
    (False, 1): "362fde4490c6765d821d2f820c71b8f334c0146bad629478b5426ad6ccafd51b",
    (False, 2): "de62cc4a05320b8a4fe3f4b78fb32034cb0303cc8c5e39bc8fd9cd2e3ff89290",
    (True, 1): "d88f7543b44dc3f64b9a208a82a482499959774e49e36c0295949d2de293b873",
    (True, 2): "86575d391f3fc9b06cda2ea5877a6a88af58494796d7ab178b9668d5f9bdb0da",
}


def _config(**overrides) -> NeuroCutsConfig:
    defaults = dict(hidden_sizes=(8, 8), max_timesteps_total=600,
                    timesteps_per_batch=200, max_timesteps_per_rollout=100,
                    leaf_threshold=8, seed=11)
    defaults.update(overrides)
    return NeuroCutsConfig.fast_test_config(**defaults)


def _digest(trainer: NeuroCutsTrainer, result) -> str:
    rows = [{k: v for k, v in stats.as_dict().items() if k != "wall_time_s"}
            for stats in result.history]
    payload = {"history": rows, "lags": list(trainer.collection_lags),
               "steps": result.timesteps_total,
               "best": result.best_objective,
               "tree": tree_to_dict(result.best_tree)}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("async_collection", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_history_matches_the_two_loop_trainer(small_acl_ruleset,
                                              async_collection, workers):
    config = _config(async_collection=async_collection,
                     num_rollout_workers=workers)
    with NeuroCutsTrainer(small_acl_ruleset, config,
                          rollout_backend="serial") as trainer:
        assert _digest(trainer, trainer.train()) == \
            DIGESTS[async_collection, workers]
    # Split calls: the first leaves a pipelined round drained into the
    # prefetch, which the second trains first.
    with NeuroCutsTrainer(small_acl_ruleset, config,
                          rollout_backend="serial") as trainer:
        trainer.train(max_iterations=1)
        assert (trainer._prefetch is not None) == async_collection
        assert _digest(trainer, trainer.train()) == \
            DIGESTS[async_collection, workers]


def test_pipelined_process_pool_matches_the_two_loop_trainer(
        small_acl_ruleset):
    """One spawn worker: rounds travel through ``apply_async`` and the
    shared-memory broadcast, and still reproduce the serial digest."""
    with NeuroCutsTrainer(small_acl_ruleset, _config(async_collection=True),
                          rollout_backend="process") as trainer:
        assert _digest(trainer, trainer.train()) == DIGESTS[True, 1]


def test_prefetch_restored_into_a_synchronous_trainer_is_trained_first(
        small_acl_ruleset, tmp_path):
    """A pipelined checkpoint resumed with ``async_collection=False`` trains
    the stashed round (one generation stale) and then collects on current
    weights; the stash is never counted without being trained."""
    config = _config(async_collection=True)
    path = tmp_path / "pipelined.ckpt"
    with NeuroCutsTrainer(small_acl_ruleset, config) as first:
        first.train(max_iterations=1)
        first.save(path)
        assert first._prefetch is not None
    sync = dataclasses.replace(config, async_collection=False)
    with NeuroCutsTrainer.restore(path, small_acl_ruleset, sync) as resumed:
        stashed = len(resumed._prefetch.summaries)
        result = resumed.train()
        assert resumed._prefetch is None
        assert result.history[1].num_rollouts == stashed
        assert resumed.collection_lags == [0, 1] + [0] * (
            len(result.history) - 2)
