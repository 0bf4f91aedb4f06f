"""Serving-layer benchmark: heavy multi-tenant traffic across hot swaps.

The acceptance bar for the serving layer: the pinned ``"hotswap"`` serving
scorecard (``repro.harness.scorecard.SERVING_SCORECARDS``) — a generated
multi-tenant flow workload with mid-trace rule churn — is served with *zero*
dropped packets and *zero* misclassifications, every answer equal to linear
search over the exact ruleset generation its engine was compiled from,
including the post-update rulesets installed by the hot swaps.

The quantitative bar is the checked-in baseline record
(``benchmarks/baselines/BENCH_serving_hotswap.json``): deterministic
counters — cache hits/invalidations, batch counts, swap tallies — gate
bit-for-bit, while pps/latency timings are tolerance-banded only on a
comparable machine.  This replaces the old hard-coded ratio asserts
(``cache_hit_rate >= 0.5``, ``mean_batch_size > 1.0``): a cache-locality
regression now shows up as a ``cache_hits`` counter diff against the
baseline, not as a threshold that a slow CI container trips over.
Regenerate the baselines with ``scripts/make_bench_baselines.py`` when a
counter change is intentional.
"""

from __future__ import annotations

import random

from repro.harness import format_table
from repro.harness.scorecard import (SERVING_SCORECARDS,
                                     run_serving_scorecard,
                                     serving_bench_filename)
from repro.harness.serving import serving_bench_record

CFG = SERVING_SCORECARDS["hotswap"]


def test_hot_swap_zero_misclassification(run_once, benchmark, bench_gate):
    result = run_once(run_serving_scorecard, "hotswap")
    report = result.report

    print("\n=== Multi-tenant serving with mid-run hot swaps ===")
    print(result.workload.describe())
    print(format_table(["metric", "value"], report.rows()))
    print(format_table(
        ["tenant", "rules", "epoch", "hit rate", "evictions", "swaps"],
        result.tenant_rows(),
    ))
    benchmark.extra_info["pps"] = report.pps
    benchmark.extra_info["p50_ms"] = report.latency_ms(50.0)
    benchmark.extra_info["p99_ms"] = report.latency_ms(99.0)
    benchmark.extra_info["cache_hit_rate"] = report.cache_hit_rate
    benchmark.extra_info["swaps"] = report.swaps

    # No dropped packets: every generated request was answered exactly once.
    assert report.num_requests == len(result.workload.requests)
    # The churn actually exercised the hot-swap path.
    assert report.num_updates == CFG["churn_events"]
    assert report.swaps >= 1, "no engine swap happened during the trace"

    # Differential exactness across the swaps: each served packet must equal
    # linear search over the ruleset generation its engine was built from.
    exactness = result.verify_exactness()
    assert exactness.num_checked == report.num_requests
    assert exactness.num_post_swap > 0, \
        "no packets were served by a post-update engine"
    assert exactness.num_mismatches == 0, (
        f"{exactness.num_mismatches} served answers disagree with linear "
        f"search across the hot swap"
    )

    # The live engines serve the *post-update* rulesets: packets sampled
    # inside every added rule classify identically under the swapped-in
    # engine and linear search over the updated ruleset.
    rng = random.Random(7)
    for update in result.workload.updates:
        slot = result.registry.slot(update.tenant_id)
        post = slot.ruleset_at(slot.epoch)
        for rule in update.adds:
            assert rule in post.rules, "added rule missing post-swap"
            packet = post.sample_matching_packet(rule, rng)
            expected = post.classify(packet)
            actual = slot.engine().classify(packet)
            assert (actual.priority if actual else None) == \
                (expected.priority if expected else None)
        for rule in update.removes:
            assert rule not in post.rules, "removed rule still live post-swap"

    # Telemetry sanity: the reported figures are real measurements.
    assert report.pps > 0
    assert report.latency_ms(50.0) <= report.latency_ms(90.0) \
        <= report.latency_ms(99.0)

    # The quantitative bar: this exact run's record vs the checked-in
    # baseline.  Cache locality, batching efficiency, and swap behaviour all
    # gate here as exact counter equality.
    record = serving_bench_record(report, name="serving-hotswap",
                                  config=dict(CFG), exactness=exactness)
    bench_gate(record, serving_bench_filename("hotswap"))
