"""Replay: drive the full serving stack from a trace file.

``replay_trace`` rebuilds the serving stack — registry, compiled engines,
micro-batcher, hot swaps, optional retrain controller — from a recorded
trace, serves exactly the recorded packet stream on the trace's own clock
and compares every served decision against the trace's golden column,
turning the zero-misclassification invariant into a regression check
against a fixed, versioned input: zero drops, zero duplicates, zero
decision diffs.

Engine swaps land at each update's barrier (the recording determinism
contract, see :mod:`repro.traces.format`); two replays of the same trace
then produce identical decisions *and* identical deterministic telemetry
counters (:meth:`~repro.serve.service.ServingReport.deterministic_counters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.exceptions import TraceError
from repro.serve.service import ServingReport
from repro.serve.stack import ServingConfig
from repro.traces.format import ServingTrace
from repro.traces.io import read_trace
from repro.traces.record import fold_batches_by_seq

#: How many mismatch examples a report keeps for display.
MAX_MISMATCH_EXAMPLES = 10


@dataclass(frozen=True)
class ReplayMismatch:
    """One replayed decision that disagreed with the golden column."""

    row: int
    tenant_id: str
    time: float
    golden_priority: Optional[int]
    replayed_priority: Optional[int]


@dataclass
class ReplayReport:
    """Outcome of verifying one replay against a trace's golden column."""

    num_records: int
    num_served: int
    #: Trace rows never answered by the replay (must be 0).
    num_dropped: int
    #: Trace rows answered more than once (must be 0).
    num_duplicates: int
    num_mismatches: int
    mismatches: List[ReplayMismatch] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def is_exact(self) -> bool:
        """True when every packet was served once with the golden answer."""
        return (self.num_dropped == 0 and self.num_duplicates == 0
                and self.num_mismatches == 0)

    def rows(self) -> List[List[object]]:
        """Summary rows for :func:`repro.harness.tables.format_table`."""
        return [
            ["trace records", f"{self.num_records:,}"],
            ["served", f"{self.num_served:,}"],
            ["dropped", f"{self.num_dropped:,}"],
            ["duplicates", f"{self.num_duplicates:,}"],
            ["golden mismatches", f"{self.num_mismatches:,}"],
        ]


def verify_replay(trace: ServingTrace, report: ServingReport) -> ReplayReport:
    """Compare a replay's served decisions against the golden column.

    ``report`` must carry recorded batches.  Decisions map back to trace
    rows via each request's ``seq`` stamp, so batching order, hot swaps and
    retrains cannot confuse the comparison.
    """
    if report.batches is None:
        raise TraceError(
            "verification needs served batches; replay with "
            "record_batches=True"
        )
    served, decisions = fold_batches_by_seq(report.batches,
                                            trace.num_records, what="trace")
    mismatches: List[ReplayMismatch] = []
    num_mismatches = 0
    tenant_ids = trace.tenant_ids
    for seq, priority in decisions:
        golden = trace.golden_priority(seq)
        if priority != golden:
            num_mismatches += 1
            if len(mismatches) < MAX_MISMATCH_EXAMPLES:
                record = trace.records[seq]
                mismatches.append(ReplayMismatch(
                    row=seq,
                    tenant_id=tenant_ids[int(record["tenant"])],
                    time=float(record["time"]),
                    golden_priority=golden,
                    replayed_priority=priority,
                ))
    return ReplayReport(
        num_records=trace.num_records,
        num_served=int(served.sum()),
        num_dropped=int(np.count_nonzero(served == 0)),
        num_duplicates=int(np.count_nonzero(served > 1)),
        num_mismatches=num_mismatches,
        mismatches=mismatches,
        counters=report.deterministic_counters(),
    )


@dataclass
class ReplayOutcome:
    """What :func:`replay_trace` produced."""

    trace: ServingTrace
    result: "ServingResult"
    report: ReplayReport

    def bench_record(self, name: str,
                     config: Optional[dict] = None) -> "BenchRecord":
        """This replay as a versioned scorecard entry (area ``"replay"``).

        Counters carry the deterministic telemetry plus the verification
        tallies (dropped / duplicates / golden mismatches — all gated at
        exact equality); timings carry the machine-dependent figures.
        """
        from repro.harness.serving import serving_bench_record

        record = serving_bench_record(self.result.report, name=name,
                                      config=config, area="replay")
        record.counters["num_records"] = self.trace.num_records
        record.counters["verify_dropped"] = self.report.num_dropped
        record.counters["verify_duplicates"] = self.report.num_duplicates
        record.counters["verify_mismatches"] = self.report.num_mismatches
        return record


def replay_trace(
    trace: Union[str, Path, ServingTrace],
    config: ServingConfig = ServingConfig(),
    bench_path: Optional[Union[str, Path]] = None,
) -> ReplayOutcome:
    """Serve a recorded trace through the full stack and verify it.

    ``trace`` is a path or an already-loaded :class:`ServingTrace`.
    ``config`` is free to differ from the recording run — batch size, cache
    size, even arming the retrain loop — because served
    decisions depend only on (packet, epoch ruleset), and the epoch a packet
    sees only on the trace clock; ``record_batches`` is forced on.

    ``config.ingest`` is inert here, as on every trace path of
    ``run_serving``: the packets were admitted when recorded, so golden
    traces stay bit-exact and the ``ingest_*`` counters report zero.

    ``bench_path`` additionally writes the run as a ``BENCH_replay.json``
    scorecard (see :mod:`repro.obs.bench`) whose ``config`` block is
    :meth:`ServingConfig.describe` plus ``verify: true``, so two replays
    that differ in any knob cannot pass for each other in
    ``repro bench compare``.
    """
    from repro.harness.serving import run_serving

    trace_label: Optional[str] = None
    if not isinstance(trace, ServingTrace):
        trace_label = Path(trace).stem
        trace = read_trace(trace)
    config = replace(config, record_batches=True)
    result = run_serving(config, trace_path=trace)
    report = verify_replay(trace, result.report)
    outcome = ReplayOutcome(trace=trace, result=result, report=report)
    if bench_path is not None:
        from repro.obs.bench import write_bench

        record = outcome.bench_record(
            name=f"replay:{trace_label or f'seed{trace.seed}'}",
            config=dict(config.describe(), verify=True),
        )
        write_bench(record, bench_path)
    return outcome
