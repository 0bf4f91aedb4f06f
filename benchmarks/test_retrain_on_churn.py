"""Acceptance benchmark for the adaptive serving loop (retrain-on-churn).

Asserted end to end against its pinned serving scorecard
(``repro.harness.scorecard.SERVING_SCORECARDS``) and checked-in baseline
record ``BENCH_serving_retrain.json``: a churn-heavy multi-tenant workload
pushes every tenant past its retrain threshold; NeuroCuts retrains are
triggered mid-run, and the freshly trained *trees* (not just recompiled
arrays) hot-swap into the serving path with zero dropped and zero
misclassified packets — every answer still equals linear search over the
exact ruleset generation its engine served.  The scorecard pins
``backend="serial"`` retrains: background training lands on the wall
clock, which would make the counters machine-dependent.

Regenerate the baselines with ``scripts/make_bench_baselines.py`` when a
counter change is intentional.
"""

from __future__ import annotations

from repro.harness import format_table
from repro.harness.scorecard import (SERVING_SCORECARDS,
                                     run_serving_scorecard,
                                     serving_bench_filename)
from repro.harness.serving import serving_bench_record


def test_retrain_on_churn_zero_misclassification(run_once, benchmark,
                                                 bench_gate):
    cfg = SERVING_SCORECARDS["retrain"]
    result = run_once(run_serving_scorecard, "retrain")
    report = result.report

    print("\n=== Retrain-on-churn serving loop ===")
    print(result.workload.describe())
    print(format_table(["metric", "value"], report.rows()))
    print(format_table(
        ["tenant", "rules", "epoch", "hit rate", "evictions", "swaps"],
        result.tenant_rows(),
    ))
    benchmark.extra_info["pps"] = report.pps
    benchmark.extra_info["retrains_triggered"] = report.retrains_triggered
    benchmark.extra_info["retrains_installed"] = report.retrains_installed
    benchmark.extra_info["swaps"] = report.swaps

    # The churn demonstrably crossed every tenant's threshold and the
    # retrains landed.  The scorecard pins quality_gate=False (it gates the
    # adoption mechanics; the gate itself has dedicated tests), so every
    # triggered retrain installs and none is rejected.
    assert report.retrains_triggered >= cfg["tenants"], \
        "churn never pushed a tenant past its retrain threshold"
    assert report.retrains_installed == report.retrains_triggered
    assert report.retrains_rejected == 0
    assert report.retrains_discarded == 0

    # Each rule update swaps once and each retrain adoption swaps once —
    # nothing else may move an engine, and nothing may be lost.
    assert report.swaps == report.num_updates + report.retrains_installed

    # No dropped packets: every generated request was answered exactly once.
    assert report.num_requests == len(result.workload.requests)

    # Zero misclassifications across updates AND tree adoptions: every
    # served packet equals linear search over its engine epoch's ruleset.
    exactness = result.verify_exactness()
    assert exactness.num_checked == report.num_requests
    assert exactness.num_post_swap > 0
    assert exactness.num_mismatches == 0, (
        f"{exactness.num_mismatches} answers disagree with linear search "
        f"across the retrain swap"
    )

    # The retrained trees serve the *latest* rulesets: counters restarted.
    for tenant_id, entry in report.per_tenant.items():
        assert not entry["retrain"]["needs_retraining"], \
            f"{tenant_id} still wants retraining after its retrain landed"

    record = serving_bench_record(report, name="serving-retrain",
                                  config=dict(cfg), exactness=exactness)
    bench_gate(record, serving_bench_filename("retrain"))
