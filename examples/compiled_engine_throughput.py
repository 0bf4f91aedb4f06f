#!/usr/bin/env python
"""Compiled dataplane engine: batch throughput and flow caching.

Run with::

    python examples/compiled_engine_throughput.py

The script generates a ClassBench-style ACL classifier, builds decision
trees with two baseline algorithms (single-tree HiCuts and multi-tree
EffiCuts), compiles each into the flat-array engine, and measures
packets/second of the vectorised batch path, checked against linear search
on the trace's first packets.  It also demonstrates the LRU flow cache on the per-packet
serving path, where flow locality lets most packets skip the tree walk.
"""

from __future__ import annotations

import random
import time

from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier, generate_trace
from repro.engine import bench_classifier
from repro.harness import format_table


def main() -> None:
    # 1. A synthetic ClassBench-style classifier and a locality-skewed trace.
    ruleset = generate_classifier("acl1", 500, seed=0)
    packets = generate_trace(ruleset, num_packets=50_000, seed=1)
    print(f"Generated {ruleset.name!r} with {len(ruleset)} rules "
          f"and a {len(packets)}-packet trace\n")

    # 2. The compiled engine of each builder.
    rows = []
    classifiers = {}
    for builder in (HiCutsBuilder(binth=8), EffiCutsBuilder(binth=8)):
        classifier = builder.build(ruleset)
        classifiers[builder.name] = classifier
        result = bench_classifier(classifier, packets)
        rows.append([
            builder.name,
            result.num_subtrees,
            f"{result.compiled_memory_bytes / 1024:.0f} KiB",
            f"{result.compiled_memory_bytes / len(ruleset):.1f}",
            f"{result.model_memory_bytes / len(ruleset):.1f}",
            f"{result.engine_to_model:.2f}x",
            f"{result.compiled_pps:,.0f}",
        ])
        assert result.mismatches == 0, \
            "compiled engine must match linear search"
    print(format_table(
        ["algorithm", "search trees", "engine memory", "engine B/rule",
         "model B/rule", "engine/model", "compiled pps"],
        rows,
    ))

    # 3. The flow cache accelerates the per-packet serving path.  Real
    #    traffic repeats 5-tuples (packets belong to flows), so replay a
    #    bounded pool of flows one packet at a time, as a NAT/firewall
    #    would receive them.
    rng = random.Random(0)
    flows = packets[:2_000]
    replay = rng.choices(flows, k=20_000)
    classifier = classifiers["HiCuts"]
    compiled = classifier.compile(flow_cache_size=4096)
    start = time.perf_counter()
    for packet in replay:
        compiled.classify(packet)
    elapsed = time.perf_counter() - start
    stats = compiled.flow_cache.stats
    print(f"\nPer-packet serving of {len(flows)} flows with a 4096-flow "
          f"LRU cache: {len(replay) / elapsed:,.0f} pps "
          f"(hit rate {stats.hit_rate:.0%} over {stats.lookups} probed "
          f"packets, {stats.bypassed} bypassed while the cache was "
          f"dormant)")


if __name__ == "__main__":
    main()
