"""Microbenchmarks of the shared substrates.

These are conventional pytest-benchmark measurements (multiple rounds): the
cost of building baseline trees, of classifying packets through a built
tree's compiled engine, of one cut, of one compiled-engine lookup call, of one NeuroCuts
rollout, and of one PPO update.  They quantify the "bulk of time is spent
executing tree cut actions" observation from the paper's Section 5 and give
a regression baseline for the Python substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CutSplitBuilder, EffiCutsBuilder, HiCutsBuilder, \
    HyperCutsBuilder
from repro.classbench import generate_classifier, generate_trace
from repro.engine import compile_classifier, packets_to_array
from repro.neurocuts import NeuroCutsConfig, NeuroCutsEnv
from repro.nn import ActorCriticMLP
from repro.rl import Policy, PPOConfig, PPOLearner
from repro.rules import Dimension
from repro.tree import CutAction, DecisionTree


@pytest.fixture(scope="module")
def ruleset():
    return generate_classifier("acl1", 200, seed=0)


@pytest.fixture(scope="module")
def trace(ruleset):
    return generate_trace(ruleset, num_packets=500, seed=1)


@pytest.mark.parametrize("builder_cls", [
    HiCutsBuilder, HyperCutsBuilder, EffiCutsBuilder, CutSplitBuilder
])
def test_baseline_build_time(benchmark, ruleset, builder_cls):
    builder = builder_cls(binth=16)
    result = benchmark(builder.build, ruleset)
    assert result.stats().num_nodes >= 1


def test_tree_lookup_throughput(benchmark, ruleset, trace):
    compiled = HiCutsBuilder(binth=16).build(ruleset).compile()

    def classify_all():
        return compiled.classify_batch(trace)

    results = benchmark(classify_all)
    assert all(r is not None for r in results)


def test_linear_search_throughput(benchmark, ruleset, trace):
    def classify_all():
        return [ruleset.classify(p) for p in trace]

    results = benchmark(classify_all)
    assert all(r is not None for r in results)


@pytest.mark.parametrize("family,size", [("fw5", 200), ("acl1", 1000)])
def test_node_apply_cost(benchmark, family, size):
    """One 32-way cut of the root: which rules reach into each child and
    which are shadowed there, for all children at once — the step a rollout
    (and every baseline build) spends its time in."""
    classifier = generate_classifier(family, size, seed=1000)
    classifier.bounds.lo  # the table is built once per classifier

    def cut_root():
        root = DecisionTree(classifier, leaf_threshold=8).root
        return root.apply(CutAction(Dimension.SRC_IP, 32))

    children = benchmark(cut_root)
    assert len(children) == 32
    assert all(child.num_rules for child in children)


@pytest.fixture(scope="module", params=[
    ("fw1", 500, EffiCutsBuilder), ("acl1", 1000, HiCutsBuilder),
], ids=["efficuts-fw1-500", "hicuts-acl1-1000"])
def compiled_engine(request):
    family, size, builder_cls = request.param
    classifier = generate_classifier(family, size, seed=1000)
    values = packets_to_array(
        classifier.sample_packets(4096, seed=3, rule_bias=0.8))
    return compile_classifier(builder_cls(binth=8).build(classifier)), values


@pytest.mark.parametrize("rows", [1, 25, 4096])
def test_match_indices_cost(benchmark, compiled_engine, rows):
    """One ``match_indices`` call on a many-tree and a single-tree engine:
    at 1 and 25 rows the cost is the walk's fixed per-call work (what a
    cache-miss batch on the serving path pays), at 4,096 it is per lane."""
    engine, values = compiled_engine
    batch = values[:rows].copy()
    found = benchmark(engine.match_indices, batch)
    assert found.shape == (rows,)
    assert (found >= 0).any()


def test_neurocuts_rollout_cost(benchmark, ruleset):
    config = NeuroCutsConfig.fast_test_config(
        hidden_sizes=(64, 64), max_timesteps_per_rollout=300,
        leaf_threshold=16, seed=0,
    )
    env = NeuroCutsEnv(ruleset, config)
    model = ActorCriticMLP(env.observation_size, env.action_sizes,
                           hidden_sizes=(64, 64), seed=0)
    policy = Policy(model, env.action_space.space, seed=0)
    result = benchmark(env.rollout, policy)
    assert result.tree.is_complete()


def test_ppo_update_cost(benchmark, ruleset):
    config = NeuroCutsConfig.fast_test_config(hidden_sizes=(64, 64), seed=0)
    env = NeuroCutsEnv(ruleset, config)
    model = ActorCriticMLP(env.observation_size, env.action_sizes,
                           hidden_sizes=(64, 64), seed=0)
    policy = Policy(model, env.action_space.space, seed=0)
    learner = PPOLearner(model, PPOConfig(num_sgd_iters=3,
                                          sgd_minibatch_size=128,
                                          learning_rate=1e-3))
    rollout = env.rollout(policy)
    stats = benchmark(learner.update, rollout.batch)
    assert np.isfinite(stats.policy_loss)


def test_observation_encoding_cost(benchmark, ruleset):
    config = NeuroCutsConfig(partition_mode="simple")
    env = NeuroCutsEnv(ruleset, config)
    tree = env.new_tree()
    node = tree.current_node() or tree.root
    obs = benchmark(env.observation_encoder.encode, node)
    assert obs.shape == (env.observation_size,)
