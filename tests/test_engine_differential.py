"""Differential tests: the compiled engine vs linear-search ground truth.

For every tree-producing algorithm (the five baselines and a trained
NeuroCuts policy) on ClassBench-style suites, the compiled
``classify_batch`` must agree with :meth:`RuleSet.classify` — the paper's
correctness oracle — on at least 10k generated packets per suite.

The oracle result is computed once per ruleset and shared across all
builders, so the suite stays fast despite the linear scans.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

import reference_walk
from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
    LinearSearchBuilder,
)
from repro.classbench import generate_classifier
from repro.engine import packets_to_array
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from repro.rules.ruleset import RuleSet
from repro.tree.lookup import TreeClassifier

#: (seed family, rule count) pairs: one ACL, one firewall, one IPC suite.
SUITES = [("acl1", 150), ("fw5", 120), ("ipc1", 150)]

#: Packets per suite; the ISSUE's differential bar.
NUM_PACKETS = 10_000

_BUILDERS = {
    "HiCuts": HiCutsBuilder(binth=8),
    "HyperCuts": HyperCutsBuilder(binth=8),
    "EffiCuts": EffiCutsBuilder(binth=8),
    "CutSplit": CutSplitBuilder(binth=8),
    "LinearSearch": LinearSearchBuilder(),
}


@pytest.fixture(scope="module", params=SUITES, ids=lambda s: f"{s[0]}_{s[1]}")
def suite(request):
    """One materialised suite with its packets and oracle answers."""
    family, num_rules = request.param
    ruleset = generate_classifier(family, num_rules, seed=11)
    packets = ruleset.sample_packets(NUM_PACKETS, seed=13, rule_bias=0.85)
    oracle = [ruleset.classify(p) for p in packets]
    return ruleset, packets, oracle


def _assert_agreement(classifier: TreeClassifier, ruleset: RuleSet,
                      packets, oracle: List[Optional[object]]) -> None:
    compiled = classifier.compile().classify_batch(packets)
    assert len(compiled) == len(oracle)
    mismatches = [
        (i, want, got)
        for i, (want, got) in enumerate(zip(oracle, compiled))
        if (want.priority if want else None) != (got.priority if got else None)
    ]
    assert not mismatches, (
        f"{classifier.name}: {len(mismatches)} of {len(packets)} packets "
        f"disagree with linear search; first: {mismatches[0]}"
    )


@pytest.mark.parametrize("algorithm", sorted(_BUILDERS))
def test_baseline_compiled_matches_linear_search(suite, algorithm):
    ruleset, packets, oracle = suite
    classifier = _BUILDERS[algorithm].build(ruleset)
    _assert_agreement(classifier, ruleset, packets, oracle)


@pytest.mark.parametrize("algorithm", ["HiCuts", "EffiCuts"])
def test_fused_walk_matches_reference_walk(suite, algorithm):
    """The fused walk and the per-packet reference walk return the same
    match indices, bit for bit — including cross-tree priority merges on the
    partitioned EffiCuts classifier — not merely the same priorities.
    """
    ruleset, packets, oracle = suite
    classifier = _BUILDERS[algorithm].build(ruleset)
    compiled = classifier.compile()
    values = packets_to_array(packets)
    reference = compiled.match_indices(values)
    np.testing.assert_array_equal(
        reference_walk.match_indices(compiled, values), reference)
    got = [compiled.rules[i].priority if i >= 0 else None
           for i in reference.tolist()]
    assert got == [m.priority if m else None for m in oracle]


def test_neurocuts_compiled_matches_linear_search(suite):
    ruleset, packets, oracle = suite
    config = NeuroCutsConfig.fast_test_config(
        max_timesteps_total=1500,
        timesteps_per_batch=500,
        partition_mode="simple",
        reward_scaling="log",
        time_space_coeff=0.5,
        seed=1,
    )
    result = NeuroCutsTrainer(ruleset, config).train()
    classifier = result.best_classifier()
    _assert_agreement(classifier, ruleset, packets, oracle)
