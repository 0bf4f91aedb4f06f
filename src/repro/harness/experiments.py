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

from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
)
from repro.baselines.base import TreeBuilder
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
from repro.harness.parallel import parallel_map
from repro.harness.scales import ExperimentScale, TINY

#: Names of the four baseline algorithms in paper order.
BASELINE_NAMES: Tuple[str, ...] = ("HiCuts", "HyperCuts", "EffiCuts", "CutSplit")


def _baseline_builders(leaf_threshold: int) -> Dict[str, TreeBuilder]:
    return {
        "HiCuts": HiCutsBuilder(binth=leaf_threshold),
        "HyperCuts": HyperCutsBuilder(binth=leaf_threshold),
        "EffiCuts": EffiCutsBuilder(binth=leaf_threshold),
        "CutSplit": CutSplitBuilder(binth=leaf_threshold),
    }


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


def _build_suite_entry(task: Tuple[ClassifierSpec, int, NeuroCutsConfig, str]
                       ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Build one suite entry with every algorithm (one parallelisable task).

    Returns the metric per algorithm and, when the metric is
    ``bytes_per_rule``, the compiled engine's bytes per rule beside it.
    """
    import multiprocessing

    spec, leaf_threshold, neurocuts_config, metric = task
    if multiprocessing.current_process().daemon \
            and neurocuts_config.num_rollout_workers > 1:
        # Suite-level pool workers are daemonic and cannot spawn a nested
        # rollout pool; fall back to serial in-process rollout collection.
        # Shard seeds depend on the worker count, so this changes the
        # training trajectory vs a non-parallel suite run — warn loudly.
        import warnings

        warnings.warn(
            f"suite parallelism downgraded NeuroCuts rollout collection for "
            f"{spec.label} to 1 serial worker (nested process pools are not "
            f"allowed); training results will differ from a "
            f"num_rollout_workers={neurocuts_config.num_rollout_workers} run",
            RuntimeWarning,
            stacklevel=2,
        )
        neurocuts_config = replace_config(neurocuts_config,
                                          num_rollout_workers=1)
    builders: Dict[str, TreeBuilder] = dict(_baseline_builders(leaf_threshold))
    builders["NeuroCuts"] = NeuroCutsBuilder(config=neurocuts_config)
    ruleset = spec.materialize()
    values: Dict[str, float] = {}
    compiled: Dict[str, float] = {}
    for name, builder in builders.items():
        built = builder.build_with_stats(ruleset)
        values[name] = float(getattr(built.stats, metric))
        if metric == "bytes_per_rule":
            compiled[name] = built.classifier.compile().memory_bytes() \
                / max(1, len(ruleset))
    return values, compiled


def run_suite_comparison(
    scale: ExperimentScale = TINY,
    metric: str = "classification_time",
    neurocuts_config: Optional[NeuroCutsConfig] = None,
    specs: Optional[Sequence[ClassifierSpec]] = None,
    num_workers: Optional[int] = None,
) -> ComparisonResult:
    """Build every classifier with every algorithm and collect one metric.

    ``metric`` is ``"classification_time"`` (Figure 8) or ``"bytes_per_rule"``
    (Figure 9).  ``num_workers > 1`` distributes suite entries over the
    shared persistent process pool (one entry per task).
    """
    specs = list(specs) if specs is not None else scale.specs()
    neurocuts_config = neurocuts_config or scale.neurocuts_config()
    tasks = [(spec, scale.leaf_threshold, neurocuts_config, metric)
             for spec in specs]
    per_spec = parallel_map(_build_suite_entry, tasks, num_workers=num_workers)
    algorithms = (*BASELINE_NAMES, "NeuroCuts")
    values: Dict[str, Dict[str, float]] = {name: {} for name in algorithms}
    compiled: Dict[str, Dict[str, float]] = {}
    for spec, (entry, engine_entry) in zip(specs, per_spec):
        for name, value in entry.items():
            values[name][spec.label] = value
        for name, value in engine_entry.items():
            compiled.setdefault(name, {})[spec.label] = value
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
                specs: Optional[Sequence[ClassifierSpec]] = None,
                num_workers: Optional[int] = None) -> ComparisonResult:
    """Figure 8: classification time, NeuroCuts time-optimised (c = 1)."""
    config = scale.neurocuts_config(
        time_space_coeff=1.0, partition_mode="none", reward_scaling="linear"
    )
    return run_suite_comparison(
        scale, metric="classification_time", neurocuts_config=config,
        specs=specs, num_workers=num_workers,
    )


def run_figure9(scale: ExperimentScale = TINY,
                specs: Optional[Sequence[ClassifierSpec]] = None,
                num_workers: Optional[int] = None) -> ComparisonResult:
    """Figure 9: bytes per rule, NeuroCuts space-optimised (c = 0)."""
    config = scale.neurocuts_config(
        time_space_coeff=0.0, partition_mode="efficuts", reward_scaling="log"
    )
    return run_suite_comparison(
        scale, metric="bytes_per_rule", neurocuts_config=config,
        specs=specs, num_workers=num_workers,
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
        while trainer._timesteps_total < config.max_timesteps_total:
            trainer.train(max_iterations=total_iterations + 1)
            total_iterations += 1
            best_depths.append(trainer.result().best_time)
            if len(snapshots) < num_snapshots:
                tree = trainer.sample_trees(1)[0]
                snapshots.append(profile_tree(tree))
                snapshot_iters.append(total_iterations)
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
# Engine throughput: compiled dataplane vs the interpreter
# --------------------------------------------------------------------------- #

@dataclass
class ThroughputRow:
    """Throughput of one algorithm's classifier on one packet trace."""

    algorithm: str
    classifier: str
    interpreter_pps: float
    compiled_pps: float
    speedup: float
    compiled_memory_bytes: int
    num_subtrees: int


@dataclass
class ThroughputResult:
    """Compiled-engine throughput comparison across algorithms."""

    rows: List[ThroughputRow]
    num_packets: int

    def table_rows(self) -> List[List[object]]:
        return [
            [r.algorithm, r.classifier, f"{r.interpreter_pps:,.0f}",
             f"{r.compiled_pps:,.0f}", f"{r.speedup:.1f}x"]
            for r in self.rows
        ]

    def median_speedup(self) -> float:
        return float(np.median([r.speedup for r in self.rows])) \
            if self.rows else 0.0

    def bench_record(self, name: str = "throughput",
                     config: Optional[dict] = None) -> "BenchRecord":
        """This sweep as a scorecard entry (area ``"engine"``).

        Per-row structural figures (memory, subtree counts) are exact-gated
        counters keyed ``<algorithm>:<classifier>:<metric>``; rates are
        tolerance-banded timings under the same keys.
        """
        from repro.obs.bench import BenchRecord

        counters: Dict[str, int] = {"num_packets": self.num_packets,
                                    "num_rows": len(self.rows)}
        timings: Dict[str, float] = {"median_speedup": self.median_speedup()}
        for row in self.rows:
            key = f"{row.algorithm}:{row.classifier}"
            counters[f"{key}:compiled_memory_bytes"] = \
                row.compiled_memory_bytes
            counters[f"{key}:num_subtrees"] = row.num_subtrees
            timings[f"{key}:interpreter_pps"] = row.interpreter_pps
            timings[f"{key}:compiled_pps"] = row.compiled_pps
            timings[f"{key}:speedup"] = row.speedup
        return BenchRecord(name=name, area="engine", config=config or {},
                           counters=counters, timings=timings)


def run_throughput(
    scale: ExperimentScale = TINY,
    specs: Optional[Sequence[ClassifierSpec]] = None,
    num_packets: int = 20_000,
    algorithms: Optional[Sequence[str]] = None,
    bench_path: Optional[str] = None,
) -> ThroughputResult:
    """Measure interpreter vs compiled packets/sec for the baselines.

    This is the experiment backing the engine's headline claim: every
    classifier built by this repository, learned or heuristic, executes an
    order of magnitude faster once compiled to the flat-array engine.

    When ``specs`` is not given, only the *first* spec of the scale is
    benchmarked (throughput timing per classifier is expensive and the
    speedup is insensitive to the seed family); pass ``specs=scale.specs()``
    explicitly to sweep a whole suite.
    """
    from repro.engine.bench import bench_classifier

    specs = list(specs) if specs is not None else scale.specs()[:1]
    builders = _baseline_builders(scale.leaf_threshold)
    if algorithms is not None:
        builders = {name: builders[name] for name in algorithms}
    rows: List[ThroughputRow] = []
    for spec in specs:
        ruleset = spec.materialize()
        packets = ruleset.sample_packets(num_packets, seed=scale.seed)
        for name, builder in builders.items():
            classifier = builder.build(ruleset)
            bench = bench_classifier(classifier, packets)
            rows.append(
                ThroughputRow(
                    algorithm=name,
                    classifier=spec.label,
                    interpreter_pps=bench.interpreter_pps,
                    compiled_pps=bench.compiled_pps,
                    speedup=bench.speedup,
                    compiled_memory_bytes=bench.compiled_memory_bytes,
                    num_subtrees=bench.num_subtrees,
                )
            )
    result = ThroughputResult(rows=rows, num_packets=num_packets)
    if bench_path is not None:
        from repro.obs.bench import write_bench

        write_bench(result.bench_record(config={
            "num_packets": num_packets,
            "algorithms": sorted(builders),
            "leaf_threshold": scale.leaf_threshold,
            "seed": scale.seed,
        }), bench_path)
    return result


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

    def bench_record(self, name: str = "scaling",
                     config: Optional[dict] = None) -> "BenchRecord":
        """This sweep as a scorecard entry (area ``"scaling"``).

        Only the sweep shape is deterministic; every throughput figure is a
        tolerance-banded timing keyed ``w<workers>:<metric>``.
        """
        from repro.obs.bench import BenchRecord

        counters = {
            "num_points": len(self.points),
            "rounds": self.rounds,
            "timesteps_per_round": self.timesteps_per_round,
        }
        timings: Dict[str, float] = {}
        for point in self.points:
            key = f"w{point.workers}"
            timings[f"{key}:timesteps_per_sec"] = point.timesteps_per_sec
            timings[f"{key}:rollouts_per_sec"] = point.rollouts_per_sec
            timings[f"{key}:speedup"] = point.speedup
        return BenchRecord(name=name, area="scaling", config=config or {},
                           counters=counters, timings=timings)


def run_scaling(
    scale: ExperimentScale = TINY,
    worker_counts: Sequence[int] = (1, 2, 4),
    rounds: int = 3,
    spec: Optional[ClassifierSpec] = None,
    neurocuts_config: Optional[NeuroCutsConfig] = None,
    bench_path: Optional[str] = None,
    async_collection: bool = False,
) -> ScalingResult:
    """Figure 7: rollout-collection throughput vs parallel workers.

    For each worker count a fresh actor/learner trainer collects ``rounds``
    PPO batches worth of rollouts (same per-round timestep budget at every
    width, sharded across the workers) through a persistent executor.  A
    warm-up round is collected first so pool start-up and initializer costs
    are excluded from the timed region, matching the paper's steady-state
    rollouts/sec measurement.

    By default no PPO updates run — the experiment isolates the actor side
    that Figure 7 parallelises (process pools still exercise the
    shared-memory weight broadcast).  With ``async_collection=True`` the
    timed region is ``rounds`` full training iterations through the
    pipelined fleet trainer instead, so the measurement includes the learner
    update that pipelining hides behind collection.
    """
    import time

    spec = spec if spec is not None else scale.specs()[0]
    ruleset = spec.materialize()
    points: List[ScalingPoint] = []
    base_config = neurocuts_config or scale.neurocuts_config()
    for workers in worker_counts:
        config = replace_config(base_config, num_rollout_workers=int(workers),
                                max_timesteps_total=10 ** 9,
                                convergence_patience=None,
                                async_collection=async_collection)
        with NeuroCutsTrainer(ruleset, config) as trainer:
            trainer.collect_batch()  # warm-up: spawn pool, build workers
            start = time.perf_counter()
            steps = rollouts = 0
            if async_collection:
                before = trainer.result().timesteps_total
                result = trainer.train(max_iterations=rounds)
                elapsed = time.perf_counter() - start
                # History rows are cumulative; the drained prefetch round
                # (collected inside the timed region but not trained on) is
                # excluded from both counts, slightly understating
                # throughput rather than ever overstating it.
                if result.history:
                    steps = result.history[-1].timesteps_total - before
                    rollouts = sum(s.num_rollouts for s in result.history)
            else:
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
    result = ScalingResult(
        classifier=spec.label,
        points=points,
        rounds=rounds,
        timesteps_per_round=base_config.timesteps_per_batch,
    )
    if bench_path is not None:
        from repro.obs.bench import write_bench

        write_bench(result.bench_record(config={
            "classifier": spec.label,
            "worker_counts": [int(w) for w in worker_counts],
            "rounds": rounds,
            "async_collection": bool(async_collection),
        }), bench_path)
    return result


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
