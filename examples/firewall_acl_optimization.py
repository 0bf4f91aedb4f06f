#!/usr/bin/env python
"""Optimising a firewall rule set: the workload the paper's introduction motivates.

Firewall (fw-family) classifiers are the hard case for cutting heuristics:
many rules wildcard the source fields, so naive cuts replicate them and blow
up either the tree depth or the memory footprint.  This example builds one
fw-family classifier with all four hand-tuned baselines and with NeuroCuts
(time-optimised), validates every result against linear search, and prints
the comparison (the paper's structural time and space, plus tree and node
counts) and the per-level shape of the learnt tree (Figure 5 style).
"""

from __future__ import annotations

from repro.baselines import default_baselines
from repro.classbench import generate_classifier
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer, profile_tree, render_profile
from repro.tree import validate_classifier


def main() -> None:
    ruleset = generate_classifier("fw5", 300, seed=0)
    print(f"Firewall classifier {ruleset.name!r}: {len(ruleset)} rules\n")

    rows = []

    # Hand-tuned baselines.
    for name, builder in default_baselines(binth=16).items():
        result = builder.build_with_stats(ruleset)
        assert validate_classifier(result.classifier,
                                   num_random_packets=200).is_correct
        rows.append((name, result.stats))

    # NeuroCuts, time-optimised.
    config = NeuroCutsConfig(
        time_space_coeff=1.0, partition_mode="simple", reward_scaling="linear",
        hidden_sizes=(64, 64), max_timesteps_total=20_000,
        timesteps_per_batch=1_000, max_timesteps_per_rollout=600,
        max_tree_depth=40, num_sgd_iters=10, sgd_minibatch_size=256,
        learning_rate=1e-3, leaf_threshold=16, seed=0,
    )
    trainer = NeuroCutsTrainer(ruleset, config)
    training = trainer.train()
    neurocuts = training.best_classifier()
    assert validate_classifier(neurocuts, num_random_packets=200).is_correct
    rows.append(("NeuroCuts", neurocuts.stats()))

    print(f"{'algorithm':<12} {'worst-case time':>16} {'bytes/rule':>12} "
          f"{'trees':>6} {'nodes':>7} {'depth':>6}")
    for name, stats in rows:
        print(f"{name:<12} {stats.classification_time:>16d} "
              f"{stats.bytes_per_rule:>12.1f} {stats.num_trees:>6d} "
              f"{stats.num_nodes:>7d} {stats.depth:>6d}")

    print("\nShape of the learnt NeuroCuts tree (nodes per level, cut dims):")
    print(render_profile(profile_tree(training.best_tree)))


if __name__ == "__main__":
    main()
