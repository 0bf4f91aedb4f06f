"""NeuroCuts reproduction: neural packet classification via deep RL.

This package is a self-contained reproduction of *Neural Packet
Classification* (Liang, Zhu, Jin, Stoica — SIGCOMM 2019).  It provides:

* :mod:`repro.rules` — packet classifier rules, packets, and matching.
* :mod:`repro.classbench` — ClassBench-style synthetic workload generation.
* :mod:`repro.tree` — the decision-tree engine shared by all algorithms.
* :mod:`repro.baselines` — HiCuts, HyperCuts, EffiCuts, CutSplit and more.
* :mod:`repro.nn` / :mod:`repro.rl` — a numpy neural-network and PPO substrate.
* :mod:`repro.neurocuts` — the NeuroCuts RL formulation, sharded rollout
  workers, and the actor/learner trainer.
* :mod:`repro.executors` — ``make_executor``, the one factory for the
  ``concurrent.futures`` executors (serial / thread / spawn process pool)
  that run rollouts and background retrains.
* :mod:`repro.engine` — the compiled dataplane: flat-array trees, batched
  lookup, and the LRU flow cache.
* :mod:`repro.workloads` — serving workloads: flow traces with Zipf
  locality and bursty arrivals, multi-tenant scenarios, rule churn.
* :mod:`repro.serve` — the multi-tenant serving layer: tenant registry,
  micro-batching, and zero-downtime engine hot swaps.
* :mod:`repro.metrics` / :mod:`repro.harness` — evaluation metrics and the
  experiment harness used by the benchmark suite.
"""

from repro._version import __version__
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import DecisionTree, Node
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer

__all__ = [
    "__version__",
    "Dimension",
    "Packet",
    "Rule",
    "RuleSet",
    "DecisionTree",
    "Node",
    "NeuroCutsConfig",
    "NeuroCutsTrainer",
]
