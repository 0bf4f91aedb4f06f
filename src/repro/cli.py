"""Command-line interface.

The subcommands cover the library's day-to-day workflows without writing
Python (full reference with copy-pasteable invocations: docs/cli.md):

* ``repro generate`` — emit a ClassBench-style filter file for a seed family.
* ``repro compare``  — build a rule file with every baseline (and optionally
  NeuroCuts) and print the time/space comparison.
* ``repro train``    — train NeuroCuts on a rule file and save the best tree
  as JSON.
* ``repro classify`` — classify packets from a trace against a saved tree.
* ``repro engine-bench`` — compile a classifier for the dataplane engine and
  measure its packets/sec, without and with a flow cache.
* ``repro serve-bench`` — drive the multi-tenant serving layer with a
  generated flow workload (Zipf locality, bursty arrivals, optional rule
  churn with zero-downtime engine hot swaps) and report pps, latency
  percentiles, cache hit rate, and swap telemetry.  ``--retrain-threshold``
  arms the retrain-on-churn loop (background NeuroCuts retrains swap in new
  trees mid-run).
* ``repro trace`` — record serving runs as replayable binary trace files
  and work with them: ``record`` captures a scenario plus every served
  decision (the golden column), ``replay`` drives the full serving stack
  from a file (``--verify`` asserts zero decision diffs vs the golden
  column), ``inspect`` prints a trace's header and contents, and ``diff``
  compares two traces field-for-field.
* ``repro bench`` — machine-readable bench scorecards: ``compare`` gates a
  ``BENCH_*.json`` record (written by the ``--json`` flags above, or by
  ``examples/bench_scorecard.py``) against a checked-in baseline — strict
  equality on config and deterministic counters, timings printed for
  information — and
  ``show`` pretty-prints one record.

Run ``python -m repro.cli --help`` (or the installed ``repro`` script) for
details.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.baselines import default_baselines
from repro.classbench import generate_classifier, generate_trace, seed_names
from repro.exceptions import ConfigError
from repro.executors import EXECUTOR_BACKENDS
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from repro.rules import io as rules_io
from repro.tree import TreeClassifier, load_tree, save_tree, \
    validate_classifier
from repro.harness import format_table


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """The generated-workload flags (``serve-bench`` and ``trace record``)."""
    parser.add_argument("--tenants", type=int, default=3,
                        help="number of tenants to register")
    parser.add_argument("--families", default="acl1,fw1,ipc1",
                        help="comma-separated seed families cycled across "
                             "tenants")
    parser.add_argument("--num-rules", type=int, default=150,
                        help="rules per tenant classifier")
    parser.add_argument("--num-packets", type=int, default=20_000,
                        help="total requests across tenants")
    parser.add_argument("--num-flows", type=int, default=512,
                        help="flow population size across tenants")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf exponent of flow popularity")
    parser.add_argument("--burst", type=float, default=16.0,
                        help="mean packets per arrival burst")
    parser.add_argument("--algorithm", default="HiCuts",
                        help="tree builder for every tenant (default HiCuts)")
    parser.add_argument("--binth", type=int, default=8)
    parser.add_argument("--churn-events", type=int, default=2,
                        help="mid-trace rule updates triggering hot swaps "
                             "(captured in a trace's churn sidecar)")
    parser.add_argument("--seed", type=int, default=0)


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """Batching and flow-cache flags (every serving subcommand)."""
    parser.add_argument("--batch-size", type=int, default=64,
                        help="micro-batcher release size")
    parser.add_argument("--max-delay-ms", type=float, default=1.0,
                        help="micro-batcher deadline in trace milliseconds")
    parser.add_argument("--flow-cache", type=int, default=2048,
                        help="per-tenant LRU flow cache capacity (0 disables)")


def _add_stack_flags(parser: argparse.ArgumentParser,
                     retrain_backend: str) -> None:
    """Retrain and ingest flags (``serve-bench`` and ``trace replay``);
    ``retrain_backend`` is the one default that differs."""
    parser.add_argument("--retrain-threshold", type=int, default=0,
                        metavar="N",
                        help="retrain a tenant's tree once N rule updates "
                             "accumulate (0 disables the retrain loop)")
    parser.add_argument("--retrain-timesteps", type=int, default=3000,
                        help="NeuroCuts timestep budget per retrain")
    parser.add_argument("--retrain-backend", default=retrain_backend,
                        choices=EXECUTOR_BACKENDS,
                        help="where retrain jobs run (thread overlaps "
                             "serving; serial is deterministic/inline)")
    parser.add_argument("--ingest", action="store_true",
                        help="run the ingestion frontend ahead of the "
                             "batcher: per-tenant token-bucket admission, "
                             "queue-delay backpressure, counted throttling "
                             "(see docs/ingest.md); a trace replay bypasses "
                             "admission timing, so verified traces stay "
                             "bit-exact")
    parser.add_argument("--tenant-rate", type=float, default=20_000.0,
                        metavar="PPS",
                        help="sustained admitted packets/sec per tenant "
                             "(token refill rate; needs --ingest)")
    parser.add_argument("--tenant-burst", type=int, default=256, metavar="N",
                        help="token-bucket burst capacity per tenant "
                             "(needs --ingest)")
    parser.add_argument("--queue-limit", type=int, default=512, metavar="N",
                        help="bounded admission-queue capacity per tenant; "
                             "arrivals beyond it are shed (needs --ingest)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuroCuts packet classification toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser(
        "generate", help="generate a ClassBench-style rule file"
    )
    gen.add_argument("--seed-family", choices=sorted(seed_names()),
                     default="acl1", help="ClassBench seed family")
    gen.add_argument("--num-rules", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", type=Path, required=True,
                     help="path of the filter file to write")

    compare = subparsers.add_parser(
        "compare", help="compare baseline algorithms on a rule file"
    )
    compare.add_argument("rules", type=Path, help="ClassBench filter file")
    compare.add_argument("--binth", type=int, default=16,
                         help="rules per terminal leaf")
    compare.add_argument("--with-neurocuts", action="store_true",
                         help="also train NeuroCuts (slower)")
    compare.add_argument("--timesteps", type=int, default=12_000,
                         help="NeuroCuts training budget")

    train = subparsers.add_parser(
        "train", help="train NeuroCuts on a rule file and save the best tree"
    )
    train.add_argument("rules", type=Path, help="ClassBench filter file")
    train.add_argument("--output", type=Path, required=True,
                       help="path of the tree JSON to write")
    train.add_argument("--timesteps", type=int, default=20_000)
    train.add_argument("--coefficient", type=float, default=1.0,
                       help="time-space coefficient c in [0, 1]")
    train.add_argument("--partition-mode", default="none",
                       choices=("none", "simple", "efficuts"))
    train.add_argument("--leaf-threshold", type=int, default=16)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--workers", type=int, default=1,
                       help="rollout workers collecting experience shards in "
                            "parallel (1 = serial collection)")

    classify = subparsers.add_parser(
        "classify", help="classify sampled packets against a saved tree"
    )
    classify.add_argument("rules", type=Path, help="ClassBench filter file")
    classify.add_argument("tree", type=Path, help="tree JSON from `repro train`")
    classify.add_argument("--num-packets", type=int, default=1000)
    classify.add_argument("--seed", type=int, default=0)

    bench = subparsers.add_parser(
        "engine-bench",
        help="benchmark compiled-engine throughput",
    )
    bench.add_argument("--rules", type=Path, default=None,
                       help="ClassBench filter file (default: generate one)")
    bench.add_argument("--seed-family", choices=sorted(seed_names()),
                       default="acl1", help="seed family when generating")
    bench.add_argument("--num-rules", type=int, default=500)
    bench.add_argument("--algorithm", default="HiCuts",
                       help="builder to benchmark (default HiCuts)")
    bench.add_argument("--num-packets", type=int, default=50_000)
    bench.add_argument("--binth", type=int, default=8,
                       help="rules per terminal leaf")
    bench.add_argument("--flow-cache", type=int, default=None, metavar="N",
                       help="also time a pass with an N-flow LRU cache")
    bench.add_argument("--seed", type=int, default=0,
                       help="seed for ruleset generation and packet sampling")
    bench.add_argument("--json", type=Path, default=None, metavar="PATH",
                       help="also write the run as a BENCH_engine.json "
                            "scorecard record (see `repro bench compare`)")

    serve = subparsers.add_parser(
        "serve-bench",
        help="benchmark the multi-tenant serving layer on a generated "
             "flow workload",
    )
    _add_scenario_flags(serve)
    _add_batch_flags(serve)
    _add_stack_flags(serve, retrain_backend="thread")
    serve.add_argument("--verify", action="store_true",
                       help="re-check every answer against linear search "
                            "(slow; proves exactness across hot swaps)")
    serve.add_argument("--flash-crowd", type=float, default=0.0,
                       metavar="FACTOR",
                       help="adversarial scenario: the busiest tenant's "
                            "offered rate multiplies by FACTOR mid-trace "
                            "(0 = nominal workload; FACTOR > 1 enables)")
    serve.add_argument("--tenant-zipf", type=float, default=1.0,
                       metavar="ALPHA",
                       help="Zipf exponent of the per-tenant traffic split "
                            "(>1 skews load onto the first tenants)")
    serve.add_argument("--json", type=Path, default=None, metavar="PATH",
                       help="also write the run as a BENCH_serve.json "
                            "scorecard record (see `repro bench compare`)")

    trace = subparsers.add_parser(
        "trace",
        help="record, replay, inspect, and diff serving traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record",
        help="serve a generated scenario and record it as a trace file",
    )
    record.add_argument("--output", type=Path, required=True,
                        help="path of the trace file to write")
    _add_scenario_flags(record)
    _add_batch_flags(record)

    replay = trace_sub.add_parser(
        "replay",
        help="serve a recorded trace through the full serving stack",
    )
    replay.add_argument("trace", type=Path, help="trace file to replay")
    replay.add_argument("--verify", action="store_true",
                        help="compare every served decision against the "
                             "trace's golden column (exit 1 on any diff)")
    replay.add_argument("--output", type=Path, default=None,
                        help="re-record the replay to this trace file "
                             "(diffs clean against the source when exact)")
    _add_batch_flags(replay)
    _add_stack_flags(replay, retrain_backend="serial")

    inspect = trace_sub.add_parser(
        "inspect", help="print a trace file's header and contents"
    )
    inspect.add_argument("trace", type=Path, help="trace file to inspect")
    inspect.add_argument("--head", type=int, default=0, metavar="N",
                         help="also print the first N packet records")

    diff = trace_sub.add_parser(
        "diff", help="compare two trace files field-for-field"
    )
    diff.add_argument("trace_a", type=Path)
    diff.add_argument("trace_b", type=Path)
    diff.add_argument("--max-examples", type=int, default=10,
                      help="per-record difference examples to print")

    bench_group = subparsers.add_parser(
        "bench",
        help="compare and inspect BENCH_*.json scorecard records",
    )
    bench_sub = bench_group.add_subparsers(dest="bench_command", required=True)

    bcompare = bench_sub.add_parser(
        "compare",
        help="gate a scorecard record (or a whole directory of them) "
             "against a baseline (exit 1 on regression)",
    )
    bcompare.add_argument("run", type=Path,
                          help="the BENCH_*.json record under test, or a "
                               "directory of records (then baseline must "
                               "be a directory too: every BENCH_*.json in "
                               "the baseline dir is gated against the "
                               "same-named run file in one invocation)")
    bcompare.add_argument("baseline", type=Path,
                          help="the baseline record (or directory) to gate "
                               "against")
    bcompare.add_argument("--ignore-config", action="store_true",
                          help="do not fail on config-knob drift between "
                               "run and baseline")

    bshow = bench_sub.add_parser(
        "show", help="pretty-print one scorecard record"
    )
    bshow.add_argument("record", type=Path, help="a BENCH_*.json file")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    ruleset = generate_classifier(args.seed_family, args.num_rules,
                                  seed=args.seed)
    rules_io.dump(ruleset, args.output)
    print(f"wrote {len(ruleset)} rules ({args.seed_family}) to {args.output}")
    return 0


def _training_config(args: argparse.Namespace) -> NeuroCutsConfig:
    return NeuroCutsConfig(
        time_space_coeff=getattr(args, "coefficient", 1.0),
        partition_mode=getattr(args, "partition_mode", "none"),
        reward_scaling="log" if getattr(args, "coefficient", 1.0) < 1.0 else "linear",
        hidden_sizes=(64, 64),
        max_timesteps_total=args.timesteps,
        timesteps_per_batch=max(500, args.timesteps // 12),
        max_timesteps_per_rollout=600,
        max_tree_depth=60,
        num_sgd_iters=10,
        sgd_minibatch_size=256,
        learning_rate=1e-3,
        leaf_threshold=getattr(args, "leaf_threshold", 16),
        seed=getattr(args, "seed", 0),
        num_rollout_workers=getattr(args, "workers", 1),
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        _check_binth(args)
        config = _training_config(args) if args.with_neurocuts else None
    except (ConfigError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ruleset = rules_io.load(args.rules)
    rows: List[List[object]] = []
    for name, builder in default_baselines(binth=args.binth).items():
        result = builder.build_with_stats(ruleset)
        rows.append([name, result.stats.classification_time,
                     round(result.stats.bytes_per_rule, 1),
                     result.stats.num_trees, result.stats.num_nodes])
    if config is not None:
        with NeuroCutsTrainer(ruleset, config) as trainer:
            result = trainer.train()
        stats = result.best_classifier().stats()
        rows.append(["NeuroCuts", stats.classification_time,
                     round(stats.bytes_per_rule, 1),
                     stats.num_trees, stats.num_nodes])
    print(format_table(
        ["algorithm", "classification time", "bytes/rule", "trees", "nodes"], rows
    ))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        config = _training_config(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ruleset = rules_io.load(args.rules)
    with NeuroCutsTrainer(ruleset, config) as trainer:
        result = trainer.train()
    classifier = result.best_classifier()
    report = validate_classifier(classifier, num_random_packets=300)
    if not report.is_correct:
        print("error: learnt tree disagrees with linear search", file=sys.stderr)
        return 1
    save_tree(result.best_tree, args.output)
    stats = classifier.stats()
    print(json.dumps({
        "timesteps": result.timesteps_total,
        "iterations": len(result.history),
        "workers": config.num_rollout_workers,
        "classification_time": stats.classification_time,
        "bytes_per_rule": round(stats.bytes_per_rule, 2),
        "depth": stats.depth,
        "nodes": stats.num_nodes,
        "tree_file": str(args.output),
    }, indent=2))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.engine import CompileError

    if args.num_packets < 1:
        print("error: --num-packets must be >= 1", file=sys.stderr)
        return 2
    ruleset = rules_io.load(args.rules)
    tree = load_tree(args.tree, ruleset)
    packets = generate_trace(ruleset, num_packets=args.num_packets,
                             seed=args.seed)
    try:
        report = validate_classifier(TreeClassifier(ruleset, [tree]),
                                     packets=packets)
    except CompileError as error:
        print(f"error: the engine cannot compile {args.tree}: {error}",
              file=sys.stderr)
        return 2
    mismatched = report.num_mismatches
    print(f"classified {report.num_packets} packets: "
          f"{report.num_packets - mismatched} agree with linear search, "
          f"{mismatched} mismatches")
    return 0 if mismatched == 0 else 1


def _cmd_engine_bench(args: argparse.Namespace) -> int:
    from repro.engine.bench import bench_classifier

    if args.num_packets < 1:
        print("error: --num-packets must be >= 1", file=sys.stderr)
        return 2
    if args.flow_cache is not None and args.flow_cache < 1:
        print("error: --flow-cache must be >= 1", file=sys.stderr)
        return 2
    try:
        _check_binth(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.rules is not None:
        ruleset = rules_io.load(args.rules)
    else:
        ruleset = generate_classifier(args.seed_family, args.num_rules,
                                      seed=args.seed)
    builders = default_baselines(binth=args.binth)
    builder = builders.get(args.algorithm)
    if builder is None:
        print(f"error: unknown algorithm {args.algorithm!r}; "
              f"choose from {sorted(builders)}", file=sys.stderr)
        return 2
    classifier = builder.build(ruleset)
    packets = generate_trace(ruleset, num_packets=args.num_packets,
                             seed=args.seed)
    result = bench_classifier(classifier, packets,
                              flow_cache_size=args.flow_cache)
    print(f"{args.algorithm} on {ruleset.name or args.seed_family} "
          f"({len(ruleset)} rules, {len(packets)} packets): "
          f"compiled {result.num_subtrees} search tree(s), "
          f"{result.compiled_memory_bytes} bytes "
          f"({result.compiled_memory_bytes / len(ruleset):.1f} per rule; "
          f"memory model {result.model_memory_bytes / len(ruleset):.1f} "
          f"per rule, engine/model {result.engine_to_model:.2f}x)")
    print(f"compile {result.compile_seconds * 1000:.1f} ms")
    print(format_table(["engine", "packets/sec", "speedup"], result.rows()))
    if result.cache_hit_rate is not None:
        print(f"flow cache: {result.cache_hit_rate:.1%} hit rate over "
              f"probed packets, {result.cache_bypassed:,} bypassed, "
              f"{result.cache_evictions} evictions "
              f"(capacity {args.flow_cache})")
    if args.json is not None:
        from repro.obs.bench import write_bench

        record = result.bench_record(config={
            "source": str(args.rules) if args.rules is not None
            else args.seed_family,
            "num_rules": len(ruleset),
            "algorithm": args.algorithm,
            "num_packets": args.num_packets,
            "binth": args.binth,
            "flow_cache": args.flow_cache,
            "seed": args.seed,
        })
        write_bench(record, args.json)
        print(f"wrote scorecard {args.json}")
    if result.mismatches:
        print(f"error: {result.mismatches} packets disagree with linear "
              f"search", file=sys.stderr)
        return 1
    return 0


def _check_binth(args: argparse.Namespace) -> None:
    """Every tree-building command refuses a leaf size below one."""
    if args.binth < 1:
        raise ValueError("--binth must be >= 1")


def _scenario(args: argparse.Namespace) -> dict:
    """``run_serving``'s workload keywords from the shared scenario flags."""
    _check_binth(args)
    if args.tenants < 1:
        raise ValueError("--tenants must be >= 1")
    if args.num_packets < 1:
        raise ValueError("--num-packets must be >= 1")
    if args.churn_events < 0:
        raise ValueError("--churn-events must be >= 0")
    return dict(
        num_tenants=args.tenants,
        families=tuple(f.strip() for f in args.families.split(",")
                       if f.strip()),
        num_rules=args.num_rules,
        num_packets=args.num_packets,
        num_flows=args.num_flows,
        zipf_alpha=args.zipf,
        mean_burst=args.burst,
        algorithm=args.algorithm,
        binth=args.binth,
        churn_events=args.churn_events,
        seed=args.seed,
    )


def _batch_fields(args: argparse.Namespace) -> dict:
    """The ``ServingConfig`` fields behind the shared batch flags."""
    if args.flow_cache < 0:
        raise ValueError("--flow-cache must be >= 0")
    return dict(
        max_batch=args.batch_size,
        max_delay=args.max_delay_ms * 1e-3,
        flow_cache_size=args.flow_cache if args.flow_cache > 0 else None,
    )


def _serving_config(args: argparse.Namespace, seed: int, **fields):
    """The ``ServingConfig`` the batch and stack flags describe.

    ``seed`` seeds the retrain policy; ``fields`` are the ones each command
    spells its own way (batch recording).  Raises
    ``ValueError`` on any out-of-range flag.
    """
    from repro.ingest import IngestConfig
    from repro.serve import RetrainPolicy, ServingConfig

    if args.retrain_threshold < 0:
        raise ValueError("--retrain-threshold must be >= 0")
    retrain = args.retrain_threshold > 0
    return ServingConfig(
        retrain_threshold=args.retrain_threshold if retrain else None,
        retrain_policy=RetrainPolicy(
            timesteps=args.retrain_timesteps,
            backend=args.retrain_backend,
            seed=seed,
        ) if retrain else None,
        ingest=IngestConfig(tenant_rate=args.tenant_rate,
                            tenant_burst=args.tenant_burst,
                            queue_limit=args.queue_limit)
        if args.ingest else None,
        **_batch_fields(args),
        **fields,
    )


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.harness.serving import run_serving
    from repro.workloads.adversarial import FlashCrowdConfig

    try:
        scenario = _scenario(args)
        if args.flash_crowd != 0 and not args.flash_crowd > 1:
            raise ValueError("--flash-crowd must be 0 (off) or > 1")
        if not args.tenant_zipf >= 0:
            raise ValueError("--tenant-zipf must be >= 0")
        config = _serving_config(args, seed=args.seed,
                                 record_batches=args.verify)
        result = run_serving(
            config,
            tenant_zipf_alpha=args.tenant_zipf,
            flash_crowd=FlashCrowdConfig(rate_factor=args.flash_crowd)
            if args.flash_crowd else None,
            **scenario,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = result.workload
    print(f"served {workload.describe()}")
    print(format_table(["metric", "value"], result.report.rows()))
    print(format_table(
        ["tenant", "rules", "epoch", "hit rate", "evictions", "swaps"],
        result.tenant_rows(),
    ))
    report = result.report
    if args.ingest:
        delay = report.metrics.timing("ingest.queue_delay_seconds") \
            if report.metrics is not None else None
        print(f"admission: {report.ingest_offered:,} offered -> "
              f"{report.ingest_admitted:,} admitted, "
              f"{report.ingest_throttled:,} throttled, "
              f"{report.ingest_shed:,} shed"
              + (f"; queue delay p50 {delay.percentile(50) * 1e3:.3f} ms, "
                 f"p99 {delay.percentile(99) * 1e3:.3f} ms, "
                 f"max {delay.max * 1e3:.3f} ms"
                 if delay is not None and delay.count else ""))
        ingest_rows = [
            [tenant_id, e["offered"], e["admitted"], e["throttled"],
             e["shed"], f"{e['goodput_pps']:,.0f}", e["max_queue_depth"]]
            for tenant_id, entry in report.per_tenant.items()
            if (e := entry.get("ingest")) is not None
        ]
        if ingest_rows:
            print(format_table(
                ["tenant", "offered", "admitted", "throttled", "shed",
                 "goodput pps", "max depth"],
                ingest_rows,
            ))
    exactness = None
    if args.verify:
        exactness = result.verify_exactness()
        print(f"differential check: {exactness.num_checked} packets "
              f"({exactness.num_post_swap} post-swap), "
              f"{exactness.num_mismatches} mismatches vs linear search")
    if args.json is not None:
        from repro.harness.serving import serving_bench_record
        from repro.obs.bench import write_bench

        record = serving_bench_record(
            result.report, name="serve-bench", exactness=exactness,
            config={
                "tenants": args.tenants,
                "families": ",".join(scenario["families"]),
                "num_rules": args.num_rules,
                "num_packets": args.num_packets,
                "num_flows": args.num_flows,
                "zipf": args.zipf,
                "burst": args.burst,
                "algorithm": args.algorithm,
                "binth": args.binth,
                "batch_size": args.batch_size,
                "max_delay_ms": args.max_delay_ms,
                "flow_cache": args.flow_cache,
                "churn_events": args.churn_events,
                "verify": args.verify,
                "retrain_threshold": args.retrain_threshold,
                "retrain_timesteps": args.retrain_timesteps
                if args.retrain_threshold else None,
                "ingest": args.ingest,
                "tenant_rate": args.tenant_rate if args.ingest else None,
                "tenant_burst": args.tenant_burst if args.ingest else None,
                "queue_limit": args.queue_limit if args.ingest else None,
                "flash_crowd": args.flash_crowd,
                "tenant_zipf": args.tenant_zipf,
                "seed": args.seed,
            })
        write_bench(record, args.json)
        print(f"wrote scorecard {args.json}")
    if exactness is not None and not exactness.is_exact:
        print("error: served answers disagree with linear search",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.exceptions import TraceError
    from repro.serve import ServingConfig
    from repro.traces import record_serving

    try:
        outcome = record_serving(
            args.output,
            ServingConfig(**_batch_fields(args)),
            **_scenario(args),
        )
    except (TraceError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    trace = outcome.trace
    matched = int(trace.records["golden_matched"].sum())
    print(f"recorded {trace.describe()}")
    print(f"golden column: {matched}/{trace.num_records} packets matched "
          f"a rule in the live run")
    print(f"wrote {outcome.path} ({outcome.path.stat().st_size:,} bytes)")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.exceptions import TraceError
    from repro.traces import read_trace, replay_trace, trace_from_run, \
        write_trace

    try:
        trace = read_trace(args.trace)
        config = _serving_config(args, seed=trace.seed)
        if args.ingest:
            print("note: trace replay bypasses admission timing (the trace "
                  "clock is authoritative; see docs/ingest.md)")
        outcome = replay_trace(trace, config)
    except (TraceError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result, report = outcome.result, outcome.report
    print(f"replayed {trace.describe()}")
    print(format_table(["metric", "value"], result.report.rows()))
    print(format_table(["check", "count"], report.rows()))
    if args.output is not None:
        try:
            replayed = trace_from_run(result.workload, result.report,
                                      seed=trace.seed,
                                      scenario=trace.scenario)
            written = write_trace(replayed, args.output)
        except TraceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"re-recorded replay to {written}")
    if args.verify:
        if not report.is_exact:
            for miss in report.mismatches:
                print(f"  row {miss.row} ({miss.tenant_id} "
                      f"t={miss.time:.6f}): golden "
                      f"{miss.golden_priority} != replayed "
                      f"{miss.replayed_priority}", file=sys.stderr)
            print(f"error: replay diverged from the golden column "
                  f"({report.num_dropped} dropped, "
                  f"{report.num_duplicates} duplicated, "
                  f"{report.num_mismatches} misclassified)", file=sys.stderr)
            return 1
        print(f"verify: {report.num_served} packets served, 0 dropped, "
              f"0 misclassified (golden column matches)")
    return 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.exceptions import TraceError
    from repro.traces import TRACE_FORMAT_VERSION, read_trace

    try:
        trace = read_trace(args.trace)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    matched = int(trace.records["golden_matched"].sum())
    print(f"{args.trace}: format v{TRACE_FORMAT_VERSION}, {trace.describe()}")
    print(format_table(
        ["tenant", "family", "rules", "algorithm", "binth", "packets"],
        [
            [
                spec.tenant_id,
                spec.seed_name,
                len(trace.rulesets[spec.tenant_id]),
                spec.algorithm,
                spec.binth,
                int((trace.records["tenant"] == t).sum()),
            ]
            for t, spec in enumerate(trace.specs)
        ],
    ))
    print(f"golden column: {matched}/{trace.num_records} matched, "
          f"{trace.num_records - matched} no-match")
    if trace.scenario:
        print(f"scenario: {json.dumps(trace.scenario, sort_keys=True)}")
    for i, update in enumerate(trace.updates):
        print(f"churn[{i}] t={update.time:.6f} {update.tenant_id}: "
              f"+{len(update.adds)} -{len(update.removes)} rules")
    if args.head > 0:
        tenant_ids = trace.tenant_ids
        for row in range(min(args.head, trace.num_records)):
            rec = trace.records[row]
            golden = trace.golden_priority(row)
            print(f"  [{row}] t={float(rec['time']):.6f} "
                  f"{tenant_ids[int(rec['tenant'])]} "
                  f"flow={int(rec['flow_id'])} "
                  f"{int(rec['src_ip'])}->{int(rec['dst_ip'])} "
                  f"sport={int(rec['src_port'])} dport={int(rec['dst_port'])} "
                  f"proto={int(rec['protocol'])} golden={golden}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.exceptions import TraceError
    from repro.traces import diff_traces

    try:
        diff = diff_traces(args.trace_a, args.trace_b,
                           max_examples=args.max_examples)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if diff.identical:
        print(f"{args.trace_a} and {args.trace_b} are identical")
        return 0
    print(f"{args.trace_a} and {args.trace_b} differ:")
    for line in diff.lines():
        print(f"  {line}")
    return 1


_TRACE_COMMANDS = {
    "record": _cmd_trace_record,
    "replay": _cmd_trace_replay,
    "inspect": _cmd_trace_inspect,
    "diff": _cmd_trace_diff,
}


def _cmd_trace(args: argparse.Namespace) -> int:
    return _TRACE_COMMANDS[args.trace_command](args)


def _compare_one(run_path: Path, baseline_path: Path,
                 args: argparse.Namespace) -> int:
    """Gate one run record against one baseline record (one exit code)."""
    from repro.exceptions import BenchError
    from repro.obs.bench import read_bench
    from repro.obs.compare import compare_records

    try:
        run = read_bench(run_path)
        baseline = read_bench(baseline_path)
    except (BenchError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = compare_records(run, baseline,
                             ignore_config=args.ignore_config)
    print(f"comparing {run_path} ({run.name}) against "
          f"{baseline_path} ({baseline.name})")
    print(format_table(["kind", "metric", "baseline", "run", "status"],
                       report.rows()))
    if not report.ok:
        print(f"error: {len(report.failures)} regression(s) vs the baseline",
              file=sys.stderr)
        return 1
    print(f"gate passed: {len(report.checks)} checks "
          f"(timings are informational)")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    if args.run.is_dir() or args.baseline.is_dir():
        if not (args.run.is_dir() and args.baseline.is_dir()):
            print("error: directory mode needs both run and baseline to be "
                  "directories of BENCH_*.json records", file=sys.stderr)
            return 2
        baselines = sorted(args.baseline.glob("BENCH_*.json"))
        if not baselines:
            print(f"error: no BENCH_*.json records in {args.baseline}",
                  file=sys.stderr)
            return 2
        worst = 0
        gated = 0
        # Every baseline must have a matching run: a record that silently
        # stops being produced is itself a regression.
        for baseline_path in baselines:
            run_path = args.run / baseline_path.name
            if not run_path.exists():
                print(f"error: baseline {baseline_path.name} has no "
                      f"matching record in {args.run}", file=sys.stderr)
                worst = max(worst, 1)
                continue
            worst = max(worst, _compare_one(run_path, baseline_path, args))
            gated += 1
        baseline_names = {p.name for p in baselines}
        extra = [p.name for p in sorted(args.run.glob("BENCH_*.json"))
                 if p.name not in baseline_names]
        if extra:
            print(f"note: {len(extra)} run record(s) without a baseline "
                  f"(informational): {', '.join(extra)}")
        if worst == 0:
            print(f"directory gate passed: {gated} record pair(s)")
        return worst
    return _compare_one(args.run, args.baseline, args)


def _cmd_bench_show(args: argparse.Namespace) -> int:
    from repro.exceptions import BenchError
    from repro.obs.bench import read_bench

    try:
        record = read_bench(args.record)
    except (BenchError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"{args.record}: {record.name} (area {record.area}, "
          f"schema v{record.schema_version})")
    env = ", ".join(f"{k}={v}" for k, v in sorted(record.environment.items()))
    print(f"environment: {env}")
    if record.config:
        print(format_table(["config", "value"],
                           [[k, record.config[k]]
                            for k in sorted(record.config)]))
    print(format_table(["counter", "value"],
                       [[k, record.counters[k]]
                        for k in sorted(record.counters)]))
    print(format_table(["timing", "value"],
                       [[k, f"{record.timings[k]:,.6g}"]
                        for k in sorted(record.timings)]))
    return 0


_BENCH_COMMANDS = {
    "compare": _cmd_bench_compare,
    "show": _cmd_bench_show,
}


def _cmd_bench(args: argparse.Namespace) -> int:
    return _BENCH_COMMANDS[args.bench_command](args)


_COMMANDS = {
    "generate": _cmd_generate,
    "compare": _cmd_compare,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "engine-bench": _cmd_engine_bench,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
