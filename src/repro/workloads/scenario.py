"""Multi-tenant serving scenarios: rulesets, traffic mix, and rule churn.

A *scenario* is everything needed to drive the serving layer: one
ClassBench-style ruleset per tenant (generated by
:mod:`repro.classbench.generator`, so acl/fw/ipc field distributions apply),
a merged request stream in which each tenant's traffic is a flow trace from
:mod:`repro.workloads.traffic` and tenant traffic shares are themselves
Zipf-skewed, plus an optional schedule of mid-trace rule updates (churn)
that exercises the hot-swap path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.classbench.generator import ClassBenchGenerator, generate_classifier
from repro.classbench.seeds import get_seed, seed_names
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.serve.batcher import Request
from repro.serve.service import RuleUpdate
from repro.workloads.traffic import FlowTraceConfig, FlowTraceGenerator

#: Families cycled through when a scenario doesn't pin one per tenant.
DEFAULT_FAMILIES: Tuple[str, ...] = ("acl1", "fw1", "ipc1")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a serving scenario."""

    tenant_id: str
    seed_name: str = "acl1"
    num_rules: int = 200
    seed: int = 0
    algorithm: str = "HiCuts"
    binth: int = 8

    def materialize(self) -> RuleSet:
        """Generate this tenant's classifier."""
        return generate_classifier(self.seed_name, self.num_rules,
                                   seed=self.seed, name=self.tenant_id)


@dataclass(frozen=True)
class ChurnConfig:
    """Mid-trace rule-update schedule.

    Attributes:
        num_events: how many update events to schedule.
        adds_per_event: fresh rules inserted per event.
        removes_per_event: existing rules deleted per event.
        window: fraction of the trace duration the events span (events are
            evenly spaced inside it, round-robin across tenants).
    """

    num_events: int = 2
    adds_per_event: int = 4
    removes_per_event: int = 2
    window: Tuple[float, float] = (0.35, 0.75)

    def __post_init__(self) -> None:
        if self.num_events < 0:
            raise ValueError("num_events must be >= 0")
        lo, hi = self.window
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("window must satisfy 0 <= lo <= hi <= 1")

    @classmethod
    def forcing_retrain(
        cls,
        retrain_threshold: int,
        num_tenants: int,
        adds_per_event: int = 4,
        removes_per_event: int = 2,
        window: Tuple[float, float] = (0.2, 0.7),
    ) -> "ChurnConfig":
        """Size a schedule so *every* tenant crosses its retrain threshold.

        Events are assigned round-robin across tenants, and each event
        applies ``adds_per_event + removes_per_event`` rule updates to its
        tenant's (single-tree) classifier, so a tenant needs
        ``ceil(threshold / updates_per_event)`` events to accumulate
        ``retrain_threshold`` updates.  The returned config schedules that
        many events for each of ``num_tenants`` tenants, early enough in
        the trace (default window ends at 70%) that the triggered retrains
        have live traffic left to land under.

        This is the workload half of the retrain-on-churn loop: drive
        ``run_serving(retrain_threshold=...)`` with this churn and every
        tenant demonstrably retrains mid-run.
        """
        if retrain_threshold < 1:
            raise ValueError("retrain_threshold must be >= 1")
        if num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        updates_per_event = adds_per_event + removes_per_event
        if updates_per_event < 1:
            raise ValueError("an event must add or remove at least one rule")
        events_per_tenant = -(-retrain_threshold // updates_per_event)
        return cls(
            num_events=events_per_tenant * num_tenants,
            adds_per_event=adds_per_event,
            removes_per_event=removes_per_event,
            window=window,
        )


@dataclass
class MultiTenantWorkload:
    """A fully materialised serving scenario."""

    specs: List[TenantSpec]
    rulesets: Dict[str, RuleSet]
    requests: List[Request]
    updates: List[RuleUpdate] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.requests[-1].time if self.requests else 0.0

    def describe(self) -> str:
        return (
            f"MultiTenantWorkload(tenants={len(self.specs)}, "
            f"requests={len(self.requests)}, updates={len(self.updates)}, "
            f"duration={self.duration:.4f}s)"
        )


def make_tenant_specs(
    num_tenants: int,
    families: Sequence[str] = DEFAULT_FAMILIES,
    num_rules: int = 200,
    seed: int = 0,
    algorithm: str = "HiCuts",
    binth: int = 8,
) -> List[TenantSpec]:
    """Enumerate tenant specs cycling through the given seed families."""
    if num_tenants < 1:
        raise ValueError("num_tenants must be >= 1")
    families = tuple(families)
    if not families:
        raise ValueError("families must name at least one seed family")
    known = set(seed_names())
    for family in families:
        if family not in known:
            raise ValueError(f"unknown seed family {family!r}; "
                             f"choose from {sorted(known)}")
    specs = []
    for i in range(num_tenants):
        family = families[i % len(families)]
        specs.append(TenantSpec(
            tenant_id=f"tenant-{i:02d}-{family}",
            seed_name=family,
            num_rules=num_rules,
            seed=seed + i,
            algorithm=algorithm,
            binth=binth,
        ))
    return specs


def tenant_trace_configs(
    specs: Sequence[TenantSpec],
    trace: FlowTraceConfig = FlowTraceConfig(),
    tenant_zipf_alpha: float = 1.0,
) -> Dict[str, FlowTraceConfig]:
    """Split a total traffic budget into per-tenant flow-trace configs.

    ``trace.num_packets`` is the *total* across tenants; each tenant's share
    follows a Zipf distribution with ``tenant_zipf_alpha`` (1.0 means the
    busiest tenant dominates, 0 < alpha << 1 approaches an even split).
    Every tenant's flow trace is seeded independently, so adding a tenant
    does not perturb the others' traffic.  Scenario variants (e.g. the
    flash-crowd scenario in :mod:`repro.workloads.adversarial`) start from
    this split and perturb individual tenants.
    """
    specs = list(specs)
    shares = np.arange(1, len(specs) + 1, dtype=float) ** (-tenant_zipf_alpha)
    shares /= shares.sum()
    configs: Dict[str, FlowTraceConfig] = {}
    for spec, share in zip(specs, shares):
        packets = max(1, int(round(trace.num_packets * share)))
        flows = max(1, int(round(trace.num_flows * share)))
        configs[spec.tenant_id] = replace(
            trace, num_packets=packets, num_flows=flows,
            mean_rate_pps=trace.mean_rate_pps * share,
            peak_rate_pps=trace.peak_rate_pps,
            seed=trace.seed * 7919 + spec.seed + 1)
    return configs


def generate_tenant_requests(
    spec: TenantSpec,
    ruleset: RuleSet,
    tenant_trace: FlowTraceConfig,
    time_offset: float = 0.0,
) -> List[Request]:
    """Generate one tenant's request stream from its flow-trace config.

    ``time_offset`` shifts every arrival (used by scenario variants that
    start a tenant's traffic mid-trace); seq stamps are left at -1 until
    :func:`assemble_workload` merges the streams.
    """
    generator = FlowTraceGenerator(ruleset, tenant_trace)
    return [
        Request(tenant_id=spec.tenant_id, packet=entry.packet,
                time=entry.time + time_offset, flow_id=entry.flow_id)
        for entry in generator.generate()
    ]


def assemble_workload(
    specs: Sequence[TenantSpec],
    rulesets: Dict[str, RuleSet],
    requests: List[Request],
    churn: Optional[ChurnConfig] = None,
    churn_seed: int = 0,
) -> MultiTenantWorkload:
    """Merge per-tenant streams into a time-ordered, seq-stamped workload."""
    requests.sort(key=lambda r: r.time)
    # Stamp stream positions so every request can be traced back to its row
    # in a recorded trace (see repro.traces), across batching.
    requests = [replace(r, seq=i) for i, r in enumerate(requests)]
    workload = MultiTenantWorkload(specs=list(specs),
                                   rulesets=dict(rulesets),
                                   requests=requests)
    if churn is not None and churn.num_events > 0:
        workload.updates = generate_churn(workload, churn, seed=churn_seed)
    return workload


def build_workload(
    specs: Sequence[TenantSpec],
    trace: FlowTraceConfig = FlowTraceConfig(),
    tenant_zipf_alpha: float = 1.0,
    churn: Optional[ChurnConfig] = None,
    rulesets: Optional[Dict[str, RuleSet]] = None,
) -> MultiTenantWorkload:
    """Materialise a multi-tenant workload from tenant specs.

    See :func:`tenant_trace_configs` for how the total traffic budget in
    ``trace`` splits across tenants.
    """
    specs = list(specs)
    if rulesets is None:
        rulesets = {spec.tenant_id: spec.materialize() for spec in specs}
    configs = tenant_trace_configs(specs, trace, tenant_zipf_alpha)
    requests: List[Request] = []
    for spec in specs:
        requests.extend(generate_tenant_requests(
            spec, rulesets[spec.tenant_id], configs[spec.tenant_id]))
    return assemble_workload(specs, rulesets, requests,
                             churn=churn, churn_seed=trace.seed)


def generate_churn(workload: MultiTenantWorkload, config: ChurnConfig,
                   seed: int = 0) -> List[RuleUpdate]:
    """Schedule rule updates against a materialised workload.

    Events are spread evenly inside ``config.window`` of the trace duration
    and assigned round-robin across tenants.  Removals draw from the
    tenant's *current* rules (never the default rule, never a rule already
    removed by an earlier event); additions are fresh rules drawn from the
    tenant's own seed family, stamped with priorities above every live rule
    so their effect on classification is observable.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    duration = workload.duration
    lo, hi = config.window
    times = np.linspace(lo * duration, hi * duration,
                        num=config.num_events) if config.num_events else []
    remaining: Dict[str, List[Rule]] = {
        t: list(rs.rules) for t, rs in workload.rulesets.items()
    }
    next_priority: Dict[str, int] = {
        t: max(r.priority for r in rules) + 1
        for t, rules in remaining.items()
    }
    updates: List[RuleUpdate] = []
    for i, when in enumerate(times):
        spec = workload.specs[i % len(workload.specs)]
        tenant = spec.tenant_id
        # The default (full-wildcard) rule must survive so every packet
        # keeps matching something.
        candidates = [r for r in remaining[tenant]
                      if r.num_wildcard_dims() < len(r.ranges)]
        removes = []
        if candidates and config.removes_per_event:
            picks = rng.choice(len(candidates),
                               size=min(config.removes_per_event,
                                        len(candidates)),
                               replace=False)
            removes = [candidates[int(p)] for p in picks]
            for rule in removes:
                remaining[tenant].remove(rule)
        adds = []
        if config.adds_per_event:
            generator = ClassBenchGenerator(
                get_seed(spec.seed_name),
                seed=spec.seed + 104729 * (i + 1),
            )
            drawn = generator.generate(config.adds_per_event + 1)
            # Drop the generator's default rule and restamp priorities above
            # every rule the tenant currently serves.
            fresh = [r for r in drawn.rules
                     if r.num_wildcard_dims() < len(r.ranges)]
            for j, rule in enumerate(fresh[:config.adds_per_event]):
                adds.append(Rule(ranges=rule.ranges,
                                 priority=next_priority[tenant],
                                 name=f"churn_{tenant}_{i}_{j}"))
                next_priority[tenant] += 1
            remaining[tenant].extend(adds)
        if adds or removes:
            updates.append(RuleUpdate(tenant_id=tenant, time=float(when),
                                      adds=tuple(adds),
                                      removes=tuple(removes)))
    return updates
