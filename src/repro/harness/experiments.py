"""Figure/table experiment runners.

One function per table or figure in the paper's evaluation section.  Each
returns a plain result object carrying the same rows/series the paper plots,
so the benchmark suite (and the examples) can print them and assert on their
shape.  Scale is controlled by an :class:`~repro.harness.scales.ExperimentScale`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import EffiCutsBuilder, HiCutsBuilder, default_baselines
from repro.classbench.suite import ClassifierSpec
from repro.metrics.summary import (
    ImprovementSummary,
    best_baseline,
    median_by_algorithm,
    summarize_improvements,
)
from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.trainer import NeuroCutsBuilder, NeuroCutsTrainer
from repro.neurocuts.visualize import TreeProfile, profile_tree
from repro.harness.scales import ExperimentScale, TINY

#: Names of the four baseline algorithms in paper order.
BASELINE_NAMES: Tuple[str, ...] = tuple(default_baselines())


def _check_unique_labels(specs: Sequence[ClassifierSpec]) -> None:
    """Refuse specs that share a label: their rows would overwrite each other."""
    seen = set()
    for spec in specs:
        if spec.label in seen:
            raise ValueError(
                f"two specs share the label {spec.label!r}; results are keyed "
                f"by label, so one would overwrite the other")
        seen.add(spec.label)


# --------------------------------------------------------------------------- #
# Figures 8 and 9: algorithm comparison over the ClassBench suite
# --------------------------------------------------------------------------- #

@dataclass
class ComparisonResult:
    """Per-classifier metric values for several algorithms (Figures 8/9)."""

    metric: str
    values: Dict[str, Dict[str, float]]
    neurocuts_vs_best_baseline: ImprovementSummary
    medians: Dict[str, float]
    #: What each tree's compiled engine really holds, in bytes per rule,
    #: beside the memory model's figure in ``values`` (Figure 9 only; empty
    #: for every other metric).
    compiled: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def engine_to_model(self) -> Dict[str, Dict[str, float]]:
        """Compiled-engine over memory-model bytes, shaped like ``values``."""
        return {
            name: {label: value / self.values[name][label]
                   for label, value in per_label.items()}
            for name, per_label in self.compiled.items()
        }

    def rows(self) -> List[Tuple[str, Dict[str, float]]]:
        """Figure-style rows: (classifier label, per-algorithm values)."""
        labels = sorted(next(iter(self.values.values())).keys())
        return [
            (label, {alg: self.values[alg][label] for alg in self.values})
            for label in labels
        ]


def run_suite_comparison(
    scale: ExperimentScale = TINY,
    metric: str = "classification_time",
    neurocuts_config: Optional[NeuroCutsConfig] = None,
    specs: Optional[Sequence[ClassifierSpec]] = None,
) -> ComparisonResult:
    """Build every classifier with every algorithm and collect one metric.

    ``metric`` is ``"classification_time"`` (Figure 8) or ``"bytes_per_rule"``
    (Figure 9); for the latter the compiled engine's bytes per rule are
    collected beside the memory model's.
    """
    specs = list(specs) if specs is not None else scale.specs()
    _check_unique_labels(specs)
    neurocuts_config = neurocuts_config or scale.neurocuts_config()
    builders = default_baselines(binth=scale.leaf_threshold)
    builders["NeuroCuts"] = NeuroCutsBuilder(config=neurocuts_config)
    values: Dict[str, Dict[str, float]] = {name: {} for name in builders}
    compiled: Dict[str, Dict[str, float]] = {}
    for spec in specs:
        ruleset = spec.materialize()
        for name, builder in builders.items():
            built = builder.build_with_stats(ruleset)
            values[name][spec.label] = float(getattr(built.stats, metric))
            if metric == "bytes_per_rule":
                compiled.setdefault(name, {})[spec.label] = \
                    built.classifier.compile().memory_bytes() \
                    / max(1, len(ruleset))
    baseline_min = best_baseline(values, exclude=("NeuroCuts",))
    summary = summarize_improvements(values["NeuroCuts"], baseline_min)
    return ComparisonResult(
        metric=metric,
        values=values,
        neurocuts_vs_best_baseline=summary,
        medians=median_by_algorithm(values),
        compiled=compiled,
    )


def run_figure8(scale: ExperimentScale = TINY,
                specs: Optional[Sequence[ClassifierSpec]] = None
                ) -> ComparisonResult:
    """Figure 8: classification time, NeuroCuts time-optimised (c = 1)."""
    config = scale.neurocuts_config(
        time_space_coeff=1.0, partition_mode="none", reward_scaling="linear"
    )
    return run_suite_comparison(
        scale, metric="classification_time", neurocuts_config=config,
        specs=specs,
    )


def run_figure9(scale: ExperimentScale = TINY,
                specs: Optional[Sequence[ClassifierSpec]] = None
                ) -> ComparisonResult:
    """Figure 9: bytes per rule, NeuroCuts space-optimised (c = 0)."""
    config = scale.neurocuts_config(
        time_space_coeff=0.0, partition_mode="efficuts", reward_scaling="log"
    )
    return run_suite_comparison(
        scale, metric="bytes_per_rule", neurocuts_config=config,
        specs=specs,
    )


# --------------------------------------------------------------------------- #
# Figure 10: NeuroCuts with the EffiCuts partitioner vs EffiCuts
# --------------------------------------------------------------------------- #

@dataclass
class EffiCutsImprovementResult:
    """Per-classifier space/time improvements over EffiCuts (Figure 10)."""

    space_improvement: ImprovementSummary
    time_improvement: ImprovementSummary
    neurocuts: Dict[str, Dict[str, float]]
    efficuts: Dict[str, Dict[str, float]]


def run_figure10(scale: ExperimentScale = TINY,
                 specs: Optional[Sequence[ClassifierSpec]] = None
                 ) -> EffiCutsImprovementResult:
    """Figure 10: NeuroCuts restricted to the EffiCuts partition action."""
    specs = list(specs) if specs is not None else scale.specs()
    _check_unique_labels(specs)
    efficuts = EffiCutsBuilder(binth=scale.leaf_threshold)
    config = scale.neurocuts_config(
        time_space_coeff=0.5, partition_mode="efficuts", reward_scaling="log"
    )
    neuro = NeuroCutsBuilder(config=config)
    ours = {"bytes_per_rule": {}, "classification_time": {}}
    theirs = {"bytes_per_rule": {}, "classification_time": {}}
    for spec in specs:
        ruleset = spec.materialize()
        ours_result = neuro.build_with_stats(ruleset)
        theirs_result = efficuts.build_with_stats(ruleset)
        for metric in ours:
            ours[metric][spec.label] = float(getattr(ours_result.stats, metric))
            theirs[metric][spec.label] = float(getattr(theirs_result.stats, metric))
    return EffiCutsImprovementResult(
        space_improvement=summarize_improvements(
            ours["bytes_per_rule"], theirs["bytes_per_rule"]
        ),
        time_improvement=summarize_improvements(
            ours["classification_time"], theirs["classification_time"]
        ),
        neurocuts=ours,
        efficuts=theirs,
    )


# --------------------------------------------------------------------------- #
# Figure 11: the time-space coefficient sweep
# --------------------------------------------------------------------------- #

@dataclass
class TradeoffPoint:
    """One point of Figure 11: medians at one value of c."""

    coefficient: float
    median_classification_time: float
    median_bytes_per_rule: float


@dataclass
class TradeoffResult:
    """The full Figure 11 sweep."""

    points: List[TradeoffPoint]

    def series(self) -> Dict[str, List[float]]:
        return {
            "c": [p.coefficient for p in self.points],
            "median_classification_time": [
                p.median_classification_time for p in self.points
            ],
            "median_bytes_per_rule": [p.median_bytes_per_rule for p in self.points],
        }


def run_figure11(scale: ExperimentScale = TINY,
                 coefficients: Sequence[float] = (0.0, 0.1, 0.5, 1.0),
                 specs: Optional[Sequence[ClassifierSpec]] = None) -> TradeoffResult:
    """Figure 11: sweep c with the simple partition mode and log scaling."""
    specs = list(specs) if specs is not None else scale.specs()
    points = []
    for c in coefficients:
        config = scale.neurocuts_config(
            time_space_coeff=float(c), partition_mode="simple", reward_scaling="log"
        )
        builder = NeuroCutsBuilder(config=config)
        times, spaces = [], []
        for spec in specs:
            ruleset = spec.materialize()
            result = builder.build_with_stats(ruleset)
            times.append(result.stats.classification_time)
            spaces.append(result.stats.bytes_per_rule)
        points.append(
            TradeoffPoint(
                coefficient=float(c),
                median_classification_time=float(np.median(times)),
                median_bytes_per_rule=float(np.median(spaces)),
            )
        )
    return TradeoffResult(points=points)


# --------------------------------------------------------------------------- #
# Figure 5: learning progress on a firewall rule set
# --------------------------------------------------------------------------- #

@dataclass
class LearningProgressResult:
    """Snapshots of the learnt tree shape across training (Figure 5)."""

    snapshots: List[TreeProfile]
    snapshot_iterations: List[int]
    best_depth_over_time: List[float]
    hicuts_profile: TreeProfile
    final_best_depth: float
    hicuts_depth: float


def run_figure5(scale: ExperimentScale = TINY, seed_name: str = "fw5",
                num_snapshots: int = 3) -> LearningProgressResult:
    """Figure 5: NeuroCuts learning to split an fw-family rule set vs HiCuts."""
    spec = next(s for s in scale.specs() if s.seed_name == seed_name) \
        if any(s.seed_name == seed_name for s in scale.specs()) \
        else ClassifierSpec(seed_name=seed_name, scale="1k",
                            num_rules=scale.scale_sizes[scale.scales[0]],
                            seed=scale.seed)
    ruleset = spec.materialize()
    config = scale.neurocuts_config(
        time_space_coeff=1.0, partition_mode="none", reward_scaling="linear"
    )
    snapshots: List[TreeProfile] = []
    snapshot_iters: List[int] = []
    best_depths: List[float] = []
    total_iterations = 0
    with NeuroCutsTrainer(ruleset, config) as trainer:
        # Train iteration by iteration so we can snapshot the policy's trees.
        while True:
            result = trainer.train(max_iterations=total_iterations + 1)
            if len(result.history) == total_iterations:
                break  # nothing to learn (a ruleset that fits one leaf)
            total_iterations += 1
            best_depths.append(result.best_time)
            if len(snapshots) < num_snapshots:
                tree = trainer.sample_trees(1)[0]
                snapshots.append(profile_tree(tree))
                snapshot_iters.append(total_iterations)
            if result.timesteps_total >= config.max_timesteps_total:
                break
        # Always snapshot the final best tree as the last entry.
        final = trainer.result()
    snapshots.append(profile_tree(final.best_tree))
    snapshot_iters.append(total_iterations)
    hicuts = HiCutsBuilder(binth=scale.leaf_threshold).build_with_stats(ruleset)
    hicuts_profile = profile_tree(hicuts.classifier.trees[0])
    return LearningProgressResult(
        snapshots=snapshots,
        snapshot_iterations=snapshot_iters,
        best_depth_over_time=best_depths,
        hicuts_profile=hicuts_profile,
        final_best_depth=final.best_time,
        hicuts_depth=float(hicuts.stats.classification_time),
    )


# --------------------------------------------------------------------------- #
# Figure 6: tree variations sampled from one stochastic policy
# --------------------------------------------------------------------------- #

@dataclass
class TreeVariationsResult:
    """Several trees sampled from a single trained policy (Figure 6)."""

    profiles: List[TreeProfile]
    objectives: List[float]


def run_figure6(scale: ExperimentScale = TINY, seed_name: str = "acl4",
                num_variations: int = 4) -> TreeVariationsResult:
    """Figure 6: sample multiple tree variations from one stochastic policy."""
    spec = ClassifierSpec(
        seed_name=seed_name, scale="1k",
        num_rules=scale.scale_sizes[scale.scales[0]], seed=scale.seed,
    )
    ruleset = spec.materialize()
    config = scale.neurocuts_config(
        time_space_coeff=1.0, partition_mode="none", reward_scaling="linear"
    )
    with NeuroCutsTrainer(ruleset, config) as trainer:
        trainer.train()
        trees = trainer.sample_trees(num_variations)
    profiles = [profile_tree(tree) for tree in trees]
    objectives = [float(profile.depth) for profile in profiles]
    return TreeVariationsResult(profiles=profiles, objectives=objectives)


# --------------------------------------------------------------------------- #
# Figure 7: rollout-collection scaling with parallel workers
# --------------------------------------------------------------------------- #

@dataclass
class ScalingPoint:
    """Rollout-collection throughput at one worker count (Figure 7)."""

    workers: int
    rollouts_per_sec: float
    timesteps_per_sec: float
    wall_time_s: float
    #: Throughput relative to the sweep's baseline point: the 1-worker
    #: (serial) point when the sweep includes one, else the point with the
    #: fewest workers.
    speedup: float


@dataclass
class ScalingResult:
    """The Figure 7 sweep: throughput vs number of rollout workers."""

    classifier: str
    points: List[ScalingPoint]
    rounds: int
    timesteps_per_round: int

    def series(self) -> Dict[str, List[float]]:
        return {
            "workers": [float(p.workers) for p in self.points],
            "timesteps_per_sec": [p.timesteps_per_sec for p in self.points],
            "rollouts_per_sec": [p.rollouts_per_sec for p in self.points],
            "speedup": [p.speedup for p in self.points],
        }

    def speedup_at(self, workers: int) -> float:
        """Speedup of the point collected with ``workers`` workers."""
        for point in self.points:
            if point.workers == workers:
                return point.speedup
        raise KeyError(f"no scaling point for {workers} workers")


def run_scaling(
    scale: ExperimentScale = TINY,
    worker_counts: Sequence[int] = (1, 2, 4),
    rounds: int = 3,
    spec: Optional[ClassifierSpec] = None,
    neurocuts_config: Optional[NeuroCutsConfig] = None,
) -> ScalingResult:
    """Figure 7: rollout-collection throughput vs parallel workers.

    For each worker count a fresh actor/learner trainer collects ``rounds``
    PPO batches worth of rollouts (same per-round timestep budget at every
    width, sharded across the workers) through a persistent executor.  A
    warm-up round is collected first so pool start-up and initializer costs
    are excluded from the timed region, matching the paper's steady-state
    rollouts/sec measurement.

    No PPO updates run — the experiment isolates the actor side that
    Figure 7 parallelises (each shard request still carries the flat weight
    vector, as in training).
    """
    import time

    spec = spec if spec is not None else scale.specs()[0]
    ruleset = spec.materialize()
    points: List[ScalingPoint] = []
    base_config = neurocuts_config or scale.neurocuts_config()
    for workers in worker_counts:
        config = replace_config(base_config, num_rollout_workers=int(workers),
                                max_timesteps_total=10 ** 9,
                                convergence_patience=None)
        with NeuroCutsTrainer(ruleset, config) as trainer:
            trainer.collect_batch()  # warm-up: spawn pool, build workers
            start = time.perf_counter()
            steps = rollouts = 0
            for _ in range(rounds):
                _, summaries = trainer.collect_batch()
                steps += sum(s.num_steps for s in summaries)
                rollouts += len(summaries)
            elapsed = time.perf_counter() - start
        points.append(
            ScalingPoint(
                workers=int(workers),
                rollouts_per_sec=rollouts / elapsed,
                timesteps_per_sec=steps / elapsed,
                wall_time_s=elapsed,
                speedup=1.0,
            )
        )
    baseline = next((p for p in points if p.workers == 1),
                    min(points, key=lambda p: p.workers))
    for point in points:
        point.speedup = point.timesteps_per_sec / baseline.timesteps_per_sec
    return ScalingResult(
        classifier=spec.label,
        points=points,
        rounds=rounds,
        timesteps_per_round=base_config.timesteps_per_batch,
    )


def replace_config(config: NeuroCutsConfig, **overrides) -> NeuroCutsConfig:
    """A copy of a NeuroCuts config with some fields replaced (re-validated)."""
    import dataclasses

    return dataclasses.replace(config, **overrides)


# --------------------------------------------------------------------------- #
# Table 1: hyperparameters
# --------------------------------------------------------------------------- #

#: The paper's Table 1 default values, keyed by config attribute name.
TABLE1_PAPER_DEFAULTS: Dict[str, object] = {
    "partition_mode": "none",
    "reward_scaling": "linear",
    "max_timesteps_per_rollout": 15000,
    "max_tree_depth": 100,
    "max_timesteps_total": 10_000_000,
    "timesteps_per_batch": 60_000,
    "hidden_sizes": (512, 512),
    "activation": "tanh",
    "learning_rate": 5e-5,
    "discount_factor": 1.0,
    "entropy_coeff": 0.01,
    "clip_param": 0.3,
    "vf_clip_param": 10.0,
    "kl_target": 0.01,
    "num_sgd_iters": 30,
    "sgd_minibatch_size": 1000,
}

#: The values Table 1 sweeps over for the sensitive hyperparameters.
TABLE1_SWEEPS: Dict[str, Tuple[object, ...]] = {
    "partition_mode": ("none", "simple", "efficuts"),
    "reward_scaling": ("linear", "log"),
    "max_timesteps_per_rollout": (1000, 5000, 15000),
    "max_tree_depth": (100, 500),
    "time_space_coeff": (0.0, 0.1, 0.5, 1.0),
}


def table1_rows() -> List[Tuple[str, object, object]]:
    """Rows of (hyperparameter, paper default, this library's default)."""
    config = NeuroCutsConfig()
    rows = []
    for name, paper_value in TABLE1_PAPER_DEFAULTS.items():
        ours = getattr(config, name)
        if isinstance(ours, tuple) or isinstance(paper_value, tuple):
            ours = tuple(ours)
        rows.append((name, paper_value, ours))
    return rows
