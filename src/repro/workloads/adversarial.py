"""Adversarial serving scenarios: workloads built to stress admission.

The scenarios here deliberately violate the polite-traffic assumptions the
nominal :func:`~repro.workloads.scenario.build_workload` mix satisfies.
The first member is the **flash crowd**: one tenant's offered rate
multiplies mid-trace while the other tenants keep their nominal Zipf
shares.  Driven through ``run_serving(ingest=...)`` it is the acceptance
scenario for the ingestion frontend — the over-rate tenant must be
throttled (counted, with a retry hint) while the conforming tenants' goodput and
queue delays stay bounded, and nothing is ever silently dropped.  The
**skewed flash crowd** variant steepens the tenant Zipf split on top of
that and is the acceptance scenario for load-aware shard rebalancing.

Like every workload in this package the result is a pure function of its
config and seeds, so over-rate runs replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.rules.ruleset import RuleSet
from repro.serve.batcher import Request
from repro.workloads.scenario import (
    ChurnConfig,
    MultiTenantWorkload,
    TenantSpec,
    assemble_workload,
    generate_tenant_requests,
    tenant_trace_configs,
)
from repro.workloads.traffic import FlowTraceConfig


@dataclass(frozen=True)
class FlashCrowdConfig:
    """One tenant goes viral: its offered rate multiplies mid-trace.

    Attributes:
        rate_factor: multiplier on the crowd tenant's nominal mean rate
            (its packet budget is unchanged — the same traffic arrives in
            a ``rate_factor``-times shorter window, which is what makes it
            a *crowd* rather than just more load).
        crowd_tenant: index into the scenario's tenant specs of the tenant
            that goes over-rate (0 = the busiest tenant of the Zipf mix).
        start: when the crowd begins, as a fraction of the nominal trace
            duration.
    """

    rate_factor: float = 8.0
    crowd_tenant: int = 0
    start: float = 0.25

    def __post_init__(self) -> None:
        if self.rate_factor <= 1.0:
            raise ValueError("rate_factor must be > 1 (no crowd otherwise)")
        if self.crowd_tenant < 0:
            raise ValueError("crowd_tenant must be >= 0")
        if not 0.0 <= self.start < 1.0:
            raise ValueError("start must be in [0, 1)")

    def as_dict(self) -> dict:
        """Scorecard-config form (stable keys)."""
        return {
            "rate_factor": self.rate_factor,
            "crowd_tenant": self.crowd_tenant,
            "start": self.start,
        }


def build_skewed_flash_crowd_workload(
    num_tenants: int = 4,
    trace: FlowTraceConfig = FlowTraceConfig(),
    flash: FlashCrowdConfig = FlashCrowdConfig(),
    tenant_zipf_alpha: float = 1.5,
    num_rules: int = 150,
    seed_name: str = "acl1",
    churn: Optional[ChurnConfig] = None,
    seed: int = 0,
) -> MultiTenantWorkload:
    """Skewed-tenant flash crowd: the shard-rebalancing stress scenario.

    A steeper-than-nominal Zipf split (``tenant_zipf_alpha`` defaults to
    1.5 instead of 1.0) concentrates most of the traffic on tenant 0, and
    the flash crowd then multiplies that tenant's rate mid-trace.  Under a
    static round-robin shard plan the shard that drew tenant 0 ends up
    carrying almost the whole stream, which is exactly the imbalance a
    load-aware :class:`~repro.serve.rebalance.RebalancePolicy` must detect
    and migrate away from.  Deterministic for a fixed config and seed,
    like every workload in this package.
    """
    if num_tenants < 2:
        raise ValueError("num_tenants must be >= 2 (skew needs neighbours)")
    specs = [
        TenantSpec(tenant_id=f"tenant-{i}", seed_name=seed_name,
                   num_rules=num_rules, seed=seed + i)
        for i in range(num_tenants)
    ]
    return build_flash_crowd_workload(
        specs, trace=trace, flash=flash,
        tenant_zipf_alpha=tenant_zipf_alpha, churn=churn)


def build_flash_crowd_workload(
    specs: Sequence[TenantSpec],
    trace: FlowTraceConfig = FlowTraceConfig(),
    flash: FlashCrowdConfig = FlashCrowdConfig(),
    tenant_zipf_alpha: float = 1.0,
    churn: Optional[ChurnConfig] = None,
    rulesets: Optional[Dict[str, RuleSet]] = None,
) -> MultiTenantWorkload:
    """Materialise the flash-crowd scenario.

    Starts from the nominal Zipf split of :func:`tenant_trace_configs`,
    then compresses the crowd tenant's trace ``flash.rate_factor``-fold
    (same packets, higher rate) and delays its start to ``flash.start`` of
    the conforming tenants' duration.  Everything downstream (merge order,
    seq stamps, churn) is shared with the nominal builder, so the only
    difference from :func:`build_workload` is the one tenant's arrival
    process.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("specs must name at least one tenant")
    if flash.crowd_tenant >= len(specs):
        raise ValueError(
            f"crowd_tenant={flash.crowd_tenant} is out of range for "
            f"{len(specs)} tenants")
    if rulesets is None:
        rulesets = {spec.tenant_id: spec.materialize() for spec in specs}
    configs = tenant_trace_configs(specs, trace, tenant_zipf_alpha)
    crowd_id = specs[flash.crowd_tenant].tenant_id
    crowd_config = configs[crowd_id]
    configs[crowd_id] = replace(
        crowd_config,
        mean_rate_pps=crowd_config.mean_rate_pps * flash.rate_factor,
        # Keep mean <= peak valid at any factor: the crowd bursts at least
        # twice its boosted mean, and never below the nominal peak.
        peak_rate_pps=max(crowd_config.peak_rate_pps,
                          2.0 * crowd_config.mean_rate_pps
                          * flash.rate_factor),
    )
    requests: List[Request] = []
    background_end = 0.0
    for spec in specs:
        if spec.tenant_id == crowd_id:
            continue
        stream = generate_tenant_requests(
            spec, rulesets[spec.tenant_id], configs[spec.tenant_id])
        if stream:
            background_end = max(background_end, stream[-1].time)
        requests.extend(stream)
    # With a single tenant there is no background traffic to measure the
    # nominal duration against; fall back to the crowd's own uncompressed
    # duration estimate (packets / nominal mean rate).
    if background_end <= 0.0:
        background_end = crowd_config.num_packets / crowd_config.mean_rate_pps
    requests.extend(generate_tenant_requests(
        specs[flash.crowd_tenant], rulesets[crowd_id], configs[crowd_id],
        time_offset=flash.start * background_end))
    return assemble_workload(specs, rulesets, requests,
                             churn=churn, churn_seed=trace.seed)
