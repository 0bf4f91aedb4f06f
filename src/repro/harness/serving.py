"""The serving experiment: heavy multi-tenant traffic with online churn.

``run_serving`` assembles a multi-tenant scenario (generated rulesets, flow
traces with Zipf locality and bursty arrivals, scheduled rule updates),
registers every tenant with a :class:`~repro.serve.registry.TenantRegistry`,
serves the merged request stream through the
:class:`~repro.serve.service.ClassificationService`, and returns the run's
telemetry: packets/second, latency percentiles, flow-cache hit rate, and
hot-swap counters.  With ``record_batches=True`` the result can additionally
prove differential exactness: every served packet is re-checked against
linear search over the exact ruleset generation its engine was compiled
from, across any mid-run hot swaps.

How the workload is *served* is one :class:`~repro.serve.stack.ServingConfig`;
``run_serving``'s own keywords only shape the workload.  The config's
``retrain_threshold`` closes the adaptive-serving loop: a
:class:`~repro.serve.controller.RetrainController` watches every slot and
swaps in freshly trained NeuroCuts *trees* when accumulated updates cross
the threshold.

``run_serving(trace_path=...)`` swaps the generator out entirely: the
workload (tenants, rulesets, packets, churn) is loaded from a recorded
trace file (:mod:`repro.traces`) and served through the identical stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.engine.layout import packets_to_array
from repro.serve.controller import RetrainPolicy
from repro.serve.registry import TenantRegistry
from repro.serve.service import ServingReport
from repro.serve.stack import ServingConfig, ServingStack, epoch_rulesets
from repro.traces.format import ServingTrace
from repro.traces.io import read_trace
from repro.workloads.adversarial import FlashCrowdConfig, \
    build_flash_crowd_workload
from repro.workloads.scenario import (
    DEFAULT_FAMILIES,
    ChurnConfig,
    MultiTenantWorkload,
    build_workload,
    make_tenant_specs,
)
from repro.workloads.traffic import FlowTraceConfig

#: Rule count past which HiCuts build cost explodes on fw-family rulesets
#: (wildcard-heavy rules replicate into most cuts; see docs/architecture.md).
HICUTS_FW_RULE_LIMIT = 200


def warn_if_hicuts_on_fw(families: Sequence[str], algorithm: str,
                         num_rules: int) -> Optional[str]:
    """Warn when a scenario asks HiCuts to build large fw-family tenants.

    HiCuts replicates wildcard-heavy rules into nearly every cut, and the
    ``fw*`` seed families are wildcard-heavy by construction — beyond about
    ``HICUTS_FW_RULE_LIMIT`` rules the build takes minutes and gigabytes.
    Emits a :class:`RuntimeWarning` (and returns its message) so both the
    CLI and programmatic callers see it before committing to the build;
    returns ``None`` when the combination is fine.
    """
    fw = sorted({f for f in families if f.startswith("fw")})
    if algorithm != "HiCuts" or not fw or num_rules <= HICUTS_FW_RULE_LIMIT:
        return None
    message = (
        f"HiCuts on {'/'.join(fw)} rulesets with {num_rules} rules: "
        f"wildcard replication makes builds beyond ~{HICUTS_FW_RULE_LIMIT} "
        f"rules take minutes and GBs of memory; use --algorithm EffiCuts "
        f"for fw-family tenants at this scale (see docs/architecture.md)"
    )
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    return message


@dataclass
class ExactnessReport:
    """Differential check of served answers against linear search."""

    num_checked: int
    num_mismatches: int
    #: Packets checked against a post-swap (epoch >= 1) ruleset generation.
    num_post_swap: int

    @property
    def is_exact(self) -> bool:
        return self.num_mismatches == 0


def serving_bench_record(report: ServingReport, name: str,
                         config: Optional[dict] = None,
                         exactness: Optional[ExactnessReport] = None,
                         area: str = "serve") -> "BenchRecord":
    """A serving run as a versioned scorecard entry.

    The deterministic telemetry (:meth:`ServingReport.deterministic_counters`)
    — plus the differential-exactness tallies when provided — lands in
    ``counters`` and is gated at exact equality; throughput and latency land
    in ``timings`` and are tolerance-banded.  Live runs (area ``"serve"``)
    and trace replays (``"replay"``) share it, so their records are
    schema-identical.
    """
    from repro.obs.bench import BenchRecord

    counters = dict(report.deterministic_counters())
    if exactness is not None:
        counters["exact_checked"] = exactness.num_checked
        counters["exact_mismatches"] = exactness.num_mismatches
        counters["exact_post_swap"] = exactness.num_post_swap
    timings = {
        "throughput_pps": report.pps,
        "wall_seconds": report.wall_seconds,
        "engine_seconds": report.engine_seconds,
    }
    for pct in sorted(report.latency_percentiles):
        timings[f"latency_p{pct:g}_ms"] = report.latency_ms(pct)
    return BenchRecord(name=name, area=area, config=config or {},
                       counters=counters, timings=timings)


@dataclass
class ServingResult:
    """Everything ``run_serving`` produced: telemetry plus the live
    ``registry`` that served it."""

    report: ServingReport
    workload: MultiTenantWorkload
    registry: TenantRegistry

    def tenant_rows(self) -> List[List[object]]:
        """Per-tenant table rows: rules, engine epoch, cache, swaps."""
        return [
            [
                tenant_id,
                entry["rules"],
                entry["epoch"],
                f"{entry['cache']['hit_rate']:.1%}",
                entry["cache"]["evictions"],
                entry["swap"]["swaps"],
            ]
            for tenant_id, entry in self.report.per_tenant.items()
        ]

    def verify_exactness(self) -> ExactnessReport:
        """Re-check every served packet against linear search.

        Each recorded batch is compared against the ruleset generation its
        serving engine was compiled from (``EngineSlot.ruleset_at``), so the
        check is exact *across* hot swaps: packets served before a swap are
        held to the pre-update ruleset, packets after it to the post-update
        one, also across retrain adoptions.  Requires
        ``ServingConfig(record_batches=True)``.
        """
        if self.report.batches is None:
            raise ValueError(
                "verify_exactness() needs ServingConfig(record_batches=True)"
            )
        history = epoch_rulesets(self.registry)
        checked = mismatches = post_swap = 0
        for batch in self.report.batches:
            ruleset = history[batch.tenant_id][batch.epoch]
            if batch.epoch >= 1:
                post_swap += len(batch.requests)
            rows = ruleset.match_rows(packets_to_array(
                request.packet for request in batch.requests))
            for row, priority in zip(rows.tolist(), batch.priorities):
                checked += 1
                if (ruleset[row].priority if row >= 0 else None) != priority:
                    mismatches += 1
        return ExactnessReport(num_checked=checked,
                               num_mismatches=mismatches,
                               num_post_swap=post_swap)

    def bench_record(self, name: str = "serve",
                     config: Optional[dict] = None,
                     verify: bool = False) -> "BenchRecord":
        """This run as a scorecard entry; ``verify=True`` folds in the
        differential-exactness tallies (needs ``record_batches=True``)."""
        exactness = self.verify_exactness() if verify else None
        return serving_bench_record(self.report, name=name, config=config,
                                    exactness=exactness)


def run_serving(
    config: ServingConfig = ServingConfig(),
    *,
    num_tenants: int = 3,
    families: Sequence[str] = DEFAULT_FAMILIES,
    num_rules: int = 150,
    num_packets: int = 10_000,
    num_flows: int = 512,
    zipf_alpha: float = 1.1,
    tenant_zipf_alpha: float = 1.0,
    mean_burst: float = 16.0,
    algorithm: str = "HiCuts",
    binth: int = 8,
    churn_events: int = 2,
    adds_per_event: int = 4,
    removes_per_event: int = 2,
    trace_path: Optional[Union[str, Path, ServingTrace]] = None,
    flash_crowd: Optional[FlashCrowdConfig] = None,
    seed: int = 0,
) -> ServingResult:
    """Serve a multi-tenant workload and collect telemetry.

    ``config`` says how the workload is served (see
    :class:`~repro.serve.stack.ServingConfig` for every field); the keywords
    shape the workload: ``num_packets`` is the total request count across
    tenants, ``churn_events`` schedules that many mid-trace rule updates
    (0 disables churn).

    ``config.retrain_threshold`` arms the retrain-on-churn loop, run by
    ``config.retrain_policy`` (default ``RetrainPolicy(seed=seed)``; on the
    trace path serial and seeded from the trace); without a threshold the
    policy is ignored.

    ``trace_path`` replays a recorded trace (a file path or a loaded
    :class:`~repro.traces.format.ServingTrace`) instead of generating a
    workload: tenants, rulesets, the packet stream, and the churn schedule
    all come from the trace, and the generation keywords (``num_tenants``,
    ``families``, ``num_packets``, ``churn_events``, ...) are ignored.  The
    config still applies, so a trace can be replayed with a different
    batch size, cache size, or retrain policy.

    ``flash_crowd`` swaps the nominal workload for the adversarial
    flash-crowd scenario (one tenant goes over-rate mid-trace; see
    :mod:`repro.workloads.adversarial`) — the natural companion to
    ``config.ingest``, and only meaningful on the generated-workload path.

    On the trace-replay path ``config.ingest`` is ignored by construction: a
    recorded trace contains only packets that were already admitted, and
    the determinism contract (docs/traces.md) makes the trace clock
    authoritative — re-running admission against replay-time stamps would
    perturb the recorded stream.  ``flash_crowd`` is rejected there (the
    workload comes from the trace, so there is nothing to generate).
    """
    if trace_path is not None:
        if flash_crowd is not None:
            raise ValueError(
                "flash_crowd generates a workload and cannot be combined "
                "with trace_path (the trace already fixes the packet stream)"
            )
        trace = trace_path if isinstance(trace_path, ServingTrace) \
            else read_trace(trace_path)
        workload = trace.to_workload()
        specs = workload.specs
        for spec in specs:
            warn_if_hicuts_on_fw([spec.seed_name], spec.algorithm,
                                 len(workload.rulesets[spec.tenant_id]))
        # Replay determinism contract (docs/traces.md): retrains run
        # serially, seeded from the trace, so every replay surface trains
        # the same trees and reports the same counters.
        default_retrain = RetrainPolicy(backend="serial", seed=trace.seed)
        # Determinism contract: trace replay bypasses admission timing.
        config = replace(config, ingest=None)
    else:
        warn_if_hicuts_on_fw(families, algorithm, num_rules)
        specs = make_tenant_specs(num_tenants, families=families,
                                  num_rules=num_rules, seed=seed,
                                  algorithm=algorithm, binth=binth)
        trace = FlowTraceConfig(num_packets=num_packets, num_flows=num_flows,
                                zipf_alpha=zipf_alpha, mean_burst=mean_burst,
                                seed=seed)
        churn = ChurnConfig(num_events=churn_events,
                            adds_per_event=adds_per_event,
                            removes_per_event=removes_per_event) \
            if churn_events > 0 else None
        if flash_crowd is not None:
            workload = build_flash_crowd_workload(
                specs, trace, flash_crowd,
                tenant_zipf_alpha=tenant_zipf_alpha, churn=churn)
        else:
            workload = build_workload(specs, trace,
                                      tenant_zipf_alpha=tenant_zipf_alpha,
                                      churn=churn)
        default_retrain = RetrainPolicy(seed=seed)
    if config.retrain_threshold is None:
        config = replace(config, retrain_policy=None)
    elif config.retrain_policy is None:
        config = replace(config, retrain_policy=default_retrain)

    stack = ServingStack(config, specs, workload.rulesets)
    try:
        report = stack.service.serve(workload.requests,
                                     updates=workload.updates)
    finally:
        stack.close()
    return ServingResult(report=report, workload=workload,
                         registry=stack.registry)
