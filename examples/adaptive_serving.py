#!/usr/bin/env python
"""The adaptive serving loop: churn-driven retraining.

The closed loop in one script.  Two tenants serve a flow workload while a
churn schedule — sized by ``ChurnConfig.forcing_retrain`` so *every* tenant
crosses its retrain threshold — degrades their trees with incremental rule
updates.  A ``RetrainController`` notices, runs background NeuroCuts
training jobs on a ``repro.executors`` backend, and hot-swaps the freshly
trained *trees* into the live path; churn that raced a retrain is replayed
on top, so the differential exactness proof holds across the whole
retrain → adopt → swap sequence.
"""

from __future__ import annotations

from repro.harness import format_table
from repro.harness.serving import run_serving
from repro.serve import RetrainPolicy, ServingConfig
from repro.workloads import ChurnConfig

RETRAIN_THRESHOLD = 8
NUM_TENANTS = 2


def main() -> None:
    # Retrain-on-churn: enough update events per tenant that every slot
    # crosses the retrain threshold mid-trace.
    churn = ChurnConfig.forcing_retrain(RETRAIN_THRESHOLD,
                                        num_tenants=NUM_TENANTS,
                                        adds_per_event=4,
                                        removes_per_event=2)
    print(f"churn: {churn.num_events} events x "
          f"{churn.adds_per_event}+{churn.removes_per_event} updates "
          f"(threshold {RETRAIN_THRESHOLD}/tenant)")
    result = run_serving(
        ServingConfig(
            retrain_threshold=RETRAIN_THRESHOLD,
            retrain_policy=RetrainPolicy(timesteps=1_500, backend="thread",
                                         seed=0),
            record_batches=True,
        ),
        num_tenants=NUM_TENANTS,
        families=("acl1", "ipc1"),
        num_rules=120,
        num_packets=15_000,
        num_flows=500,
        churn_events=churn.num_events,
        adds_per_event=churn.adds_per_event,
        removes_per_event=churn.removes_per_event,
        seed=0,
    )
    print("\nAdaptive serving telemetry (retrains ran in the background):")
    print(format_table(["metric", "value"], result.report.rows()))
    exactness = result.verify_exactness()
    print(f"differential check: {exactness.num_checked} packets "
          f"({exactness.num_post_swap} post-swap), "
          f"{exactness.num_mismatches} mismatches vs linear search")
    for tenant_id, entry in result.report.per_tenant.items():
        print(f"  {tenant_id}: epoch {entry['epoch']}, "
              f"{entry['rules']} rules, retrain counters reset to "
              f"{entry['retrain']['accumulated_updates']}")


if __name__ == "__main__":
    main()
