"""Bit-identical trees as a standing gate.

``tests/data/tree_fingerprints.json`` holds one SHA-256 per built classifier
(every baseline builder on four families at two sizes, and a seeded NeuroCuts
run), generated by ``scripts/make_tree_fingerprints.py``.  A change to tree
construction that is meant to keep every tree — a faster cut, a vectorised
heuristic — passes this without touching the file; one that means to build
different trees regenerates it and says so.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "make_tree_fingerprints",
        REPO_ROOT / "scripts" / "make_tree_fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_builder_still_builds_the_fingerprinted_trees():
    script = _script()
    expected = json.loads(script.FINGERPRINTS.read_text())
    computed = script.compute_fingerprints()
    assert sorted(computed) == sorted(expected)
    changed = sorted(key for key in expected if computed[key] != expected[key])
    assert not changed, f"trees differ from the fingerprinted ones: {changed}"
