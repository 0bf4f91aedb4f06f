"""The canonical bench scorecard: the fixed runs the regression gate tracks.

One small engine benchmark plus one small serving benchmark, with every
knob pinned, so that the deterministic counters of both are a pure function
of the code — the same contract trace replay leans on.  CI runs these via
``examples/bench_scorecard.py``, writes ``BENCH_engine.json`` and
``BENCH_serve.json``, and gates them against the checked-in baselines under
``benchmarks/baselines/`` with ``repro bench compare``; the baselines are
(re)generated by ``scripts/make_bench_baselines.py`` whenever a counter
change is intentional.

Engine swaps land at each update's barrier (the rebuild runs inline), so
cache invalidation and hit counts do not depend on the wall clock — exactly
what a deterministic scorecard needs (see docs/observability.md).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.obs.bench import BenchRecord, bench_filename, write_bench

#: Knobs of the canonical engine scorecard run (exact-gated counters depend
#: on every one of these; change them only together with the baselines).
ENGINE_SCORECARD: Dict[str, object] = {
    "seed_family": "acl1",
    "num_rules": 200,
    "num_packets": 10_000,
    "algorithm": "HiCuts",
    "binth": 8,
    "flow_cache": 1024,
    "seed": 0,
}

#: The throughput regression scorecards behind
#: ``benchmarks/test_engine_throughput.py``: bigger rulesets and traces than
#: the canonical engine run, one single-tree and one partitioned-classifier
#: configuration.  Counters gate exactly everywhere; pps timings are
#: informational (timing claims are ``perfbench`` pairs).
THROUGHPUT_SCORECARDS: Dict[str, Dict[str, object]] = {
    "hicuts": {
        "seed_family": "acl1",
        "num_rules": 500,
        "num_packets": 30_000,
        "algorithm": "HiCuts",
        "binth": 8,
        "flow_cache": 4096,
        "seed": 0,
    },
    "efficuts": {
        "seed_family": "fw1",
        "num_rules": 500,
        "num_packets": 30_000,
        "algorithm": "EffiCuts",
        "binth": 8,
        "flow_cache": 4096,
        "seed": 0,
    },
}

#: Knobs of the canonical serving scorecard run.
SERVE_SCORECARD: Dict[str, object] = {
    "tenants": 2,
    "families": "acl1",
    "num_rules": 80,
    "num_packets": 4_000,
    "num_flows": 160,
    "algorithm": "HiCuts",
    "binth": 8,
    "batch_size": 64,
    "flow_cache": 1024,
    "churn_events": 1,
    "verify": True,
    "seed": 0,
}


#: The serving regression scorecards behind
#: ``benchmarks/test_serving_hotswap.py`` and
#: ``benchmarks/test_retrain_on_churn.py``.  They replace the old
#: hard-coded ratio asserts (cache hit rate >= 0.5) with exact counter
#: gates against checked-in baselines — a cache-locality
#: regression now shows up as a cache_hits diff, not a flaky threshold.
#: Counters gate exactly everywhere; throughput/latency timings are
#: informational.  ``"serial"`` retrains are the determinism contract: a
#: background retrain lands on the wall clock, which would make the
#: counters machine-dependent.
SERVING_SCORECARDS: Dict[str, Dict[str, object]] = {
    "hotswap": {
        "tenants": 3,
        "families": "acl1,fw1,ipc1",
        "num_rules": 150,
        "num_packets": 12_000,
        "num_flows": 600,
        "algorithm": "HiCuts",
        "binth": 8,
        "batch_size": 64,
        "flow_cache": 2048,
        "churn_events": 3,
        "adds_per_event": 5,
        "removes_per_event": 3,
        "verify": True,
        "seed": 0,
    },
    "retrain": {
        "tenants": 2,
        "families": "acl1,ipc1",
        "num_rules": 60,
        "num_packets": 8_000,
        "num_flows": 400,
        "algorithm": "HiCuts",
        "binth": 8,
        "batch_size": 64,
        "flow_cache": 2048,
        # One forcing event per tenant: 4 adds + 2 removes = 6 updates
        # crosses retrain_threshold=6 the moment the event applies.
        "churn_events": 2,
        "adds_per_event": 4,
        "removes_per_event": 2,
        "retrain_threshold": 6,
        "retrain_timesteps": 400,
        "retrain_max_iterations": 2,
        "retrain_backend": "serial",
        # This scorecard pins the adoption *mechanics* (exactness across
        # retrain hot swaps), so the tiny-budget trees are adopted
        # unconditionally; the quality gate has its own unit tests
        # (tests/test_retrain_serving.py) and replay coverage.
        "retrain_quality_gate": False,
        "verify": True,
        "seed": 0,
    },
}


def _engine_record(cfg: Dict[str, object], name: str) -> BenchRecord:
    """Run one engine-bench configuration and return its record."""
    from repro.baselines import default_baselines
    from repro.classbench import generate_classifier, generate_trace
    from repro.engine.bench import bench_classifier

    ruleset = generate_classifier(cfg["seed_family"], cfg["num_rules"],
                                  seed=cfg["seed"])
    builder = default_baselines(binth=cfg["binth"])[cfg["algorithm"]]
    classifier = builder.build(ruleset)
    packets = generate_trace(ruleset, num_packets=cfg["num_packets"],
                             seed=cfg["seed"])
    result = bench_classifier(classifier, packets,
                              flow_cache_size=cfg["flow_cache"])
    return result.bench_record(name=name, config=dict(cfg))


def engine_scorecard_record() -> BenchRecord:
    """Run the canonical engine benchmark and return its record."""
    return _engine_record(ENGINE_SCORECARD, "scorecard-engine")


def throughput_scorecard_record(kind: str) -> BenchRecord:
    """Run one of the :data:`THROUGHPUT_SCORECARDS` and return its record."""
    return _engine_record(THROUGHPUT_SCORECARDS[kind], f"throughput-{kind}")


def _run_scorecard(cfg: Dict[str, object]):
    """One ``run_serving`` invocation with a scorecard's pinned knobs."""
    from repro.harness.serving import run_serving
    from repro.serve.controller import RetrainPolicy
    from repro.serve.stack import ServingConfig

    retrain_policy = None
    if "retrain_threshold" in cfg:
        retrain_policy = RetrainPolicy(
            timesteps=cfg["retrain_timesteps"],
            max_iterations=cfg["retrain_max_iterations"],
            backend=cfg["retrain_backend"],
            quality_gate=bool(cfg.get("retrain_quality_gate", True)),
            seed=cfg["seed"],
        )
    config = ServingConfig(
        max_batch=cfg["batch_size"],
        flow_cache_size=cfg["flow_cache"],
        record_batches=cfg["verify"],
        retrain_threshold=cfg.get("retrain_threshold"),
        retrain_policy=retrain_policy,
    )
    return run_serving(
        config,
        num_tenants=cfg["tenants"],
        families=tuple(cfg["families"].split(",")),
        num_rules=cfg["num_rules"],
        num_packets=cfg["num_packets"],
        num_flows=cfg["num_flows"],
        algorithm=cfg["algorithm"],
        binth=cfg["binth"],
        churn_events=cfg["churn_events"],
        seed=cfg["seed"],
        **{key: cfg[key] for key in ("adds_per_event", "removes_per_event")
           if key in cfg},
    )


def serve_scorecard_record() -> BenchRecord:
    """Run the canonical serving benchmark and return its record."""
    cfg = SERVE_SCORECARD
    return _run_scorecard(cfg).bench_record(
        name="scorecard-serve", config=dict(cfg), verify=cfg["verify"])


def run_serving_scorecard(kind: str):
    """One ``run_serving`` invocation with a scorecard's pinned knobs.

    Returns the live ``ServingResult`` so the acceptance benchmarks can make
    behavioral assertions on the exact run whose record they then gate
    against the checked-in baseline.
    """
    return _run_scorecard(SERVING_SCORECARDS[kind])


def serving_scorecard_record(kind: str) -> BenchRecord:
    """Run one of the :data:`SERVING_SCORECARDS` and return its record."""
    cfg = SERVING_SCORECARDS[kind]
    return run_serving_scorecard(kind).bench_record(
        name=f"serving-{kind}", config=dict(cfg), verify=cfg["verify"])


def throughput_bench_filename(kind: str) -> str:
    """The checked-in baseline filename of one throughput scorecard."""
    return f"BENCH_engine_throughput_{kind}.json"


def serving_bench_filename(kind: str) -> str:
    """The checked-in baseline filename of one serving scorecard."""
    return f"BENCH_serving_{kind}.json"


def run_scorecard(out_dir: Union[str, Path]) -> Dict[str, Path]:
    """Run the canonical benchmarks and write their scorecard files.

    Returns ``{name: written path}`` for ``engine``, ``serve``, every
    throughput scorecard (keyed ``throughput_<kind>``), and every serving
    scorecard (keyed ``serving_<kind>``).
    """
    out_dir = Path(out_dir)
    paths: Dict[str, Path] = {}
    for area, record in (("engine", engine_scorecard_record()),
                         ("serve", serve_scorecard_record())):
        paths[area] = write_bench(record, out_dir / bench_filename(area))
    for kind in THROUGHPUT_SCORECARDS:
        record = throughput_scorecard_record(kind)
        paths[f"throughput_{kind}"] = write_bench(
            record, out_dir / throughput_bench_filename(kind))
    for kind in SERVING_SCORECARDS:
        record = serving_scorecard_record(kind)
        paths[f"serving_{kind}"] = write_bench(
            record, out_dir / serving_bench_filename(kind))
    return paths
