#!/usr/bin/env python
"""Regenerate ``tests/data/tree_fingerprints.json``.

One SHA-256 per built classifier, over the ``tree/serialize`` form of every
tree it holds: the four baseline builders on four ClassBench families at two
sizes, and the best tree of one seeded 300-step NeuroCuts run.
``tests/test_tree_fingerprints.py`` recomputes them on every tier-1 run, so
"this change builds bit-identical trees" is a standing gate.

A tree-construction change that is meant to keep every tree must leave the
checked-in file untouched.  Regenerate it only when a change *intends* to
build different trees, and say so in that change.

Run from the repository root::

    PYTHONPATH=src python scripts/make_tree_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import default_baselines  # noqa: E402
from repro.classbench import generate_classifier  # noqa: E402
from repro.harness.scales import TINY  # noqa: E402
from repro.neurocuts import NeuroCutsTrainer  # noqa: E402
from repro.tree.lookup import TreeClassifier  # noqa: E402
from repro.tree.serialize import tree_to_dict  # noqa: E402

FINGERPRINTS = REPO_ROOT / "tests" / "data" / "tree_fingerprints.json"

FAMILIES = ("acl1", "fw1", "ipc1", "fw5")
#: The larger size is where CutSplit still pre-cuts (subsets above its
#: 64-rule cut threshold) and where HiCuts/HyperCuts on ``fw1`` replicate
#: wildcard rules into tens of thousands of nodes; all 32 builds take ~10 s.
SIZES = (150, 500)
BINTH = 8
RULESET_SEED = 1000


def classifier_fingerprint(classifier: TreeClassifier) -> str:
    """SHA-256 over the serialised form of every tree, in tree order."""
    digest = hashlib.sha256()
    for tree in classifier.trees:
        digest.update(json.dumps(tree_to_dict(tree), sort_keys=True).encode())
    return digest.hexdigest()


def neurocuts_fingerprint() -> str:
    """Best tree of a seeded 300-step run on fw5-200 (six PPO iterations)."""
    ruleset = generate_classifier("fw5", 200, seed=RULESET_SEED)
    config = TINY.neurocuts_config(
        max_timesteps_total=300, timesteps_per_batch=50,
        max_timesteps_per_rollout=50, convergence_patience=None,
        seed=RULESET_SEED)
    with NeuroCutsTrainer(ruleset, config, rollout_backend="serial") as trainer:
        result = trainer.train()
    return classifier_fingerprint(result.best_classifier())


def compute_fingerprints() -> Dict[str, str]:
    """Every fingerprint, keyed ``Algorithm/family-size``."""
    fingerprints = {}
    for family in FAMILIES:
        for size in SIZES:
            ruleset = generate_classifier(family, size, seed=RULESET_SEED)
            for name, builder in default_baselines(binth=BINTH).items():
                fingerprints[f"{name}/{family}-{size}"] = \
                    classifier_fingerprint(builder.build(ruleset))
    fingerprints["NeuroCuts/fw5-200"] = neurocuts_fingerprint()
    return fingerprints


def main() -> int:
    fingerprints = compute_fingerprints()
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=2) + "\n")
    print(f"wrote {FINGERPRINTS} ({len(fingerprints)} fingerprints)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
