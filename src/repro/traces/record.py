"""Recording: capture exactly what a live serving run served, as a trace.

The recorder is a tap on the serving harness: run the workload through
:func:`repro.harness.serving.run_serving` with recorded batches,
then fold the served batches back into arrival order via each request's
``seq`` stamp to produce the golden column — the matched-rule priority the
live run actually answered for every packet (batch order does not
matter).

Golden traces are only stable under the determinism contract (synchronous
engine swaps, serial retrains — see :mod:`repro.traces.format`), so
:func:`record_serving`'s default config swaps synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import TraceError
from repro.serve.service import ServedBatch, ServingReport
from repro.serve.stack import ServingConfig
from repro.traces.format import RECORD_DTYPE, ServingTrace
from repro.traces.io import write_trace
from repro.workloads.scenario import DEFAULT_FAMILIES, MultiTenantWorkload


def fold_batches_by_seq(batches: "list[ServedBatch]", num_records: int,
                        what: str = "workload"):
    """Fold served batches back into stream order via ``Request.seq``.

    Returns ``(served, decisions)``: ``served[i]`` counts how many times
    row ``i`` was answered (exactly once in a healthy run), and
    ``decisions`` is the flat ``(seq, priority)`` list in batch order.
    The one accounting both recording and replay verification rest on —
    a seq outside ``[0, num_records)`` raises :class:`TraceError`.
    """
    served = np.zeros(num_records, dtype=np.int64)
    decisions = []
    for batch in batches:
        for request, priority in zip(batch.requests, batch.priorities):
            seq = request.seq
            if seq < 0 or seq >= num_records:
                raise TraceError(
                    f"served batch carries request seq {seq}, outside the "
                    f"{what}'s {num_records} records"
                )
            served[seq] += 1
            decisions.append((seq, priority))
    return served, decisions


def trace_from_run(
    workload: MultiTenantWorkload,
    report: ServingReport,
    seed: int = 0,
    scenario: Optional[Dict[str, object]] = None,
) -> ServingTrace:
    """Build a trace from a finished run's workload and telemetry.

    ``report`` must carry recorded batches (``record_batches=True``); every
    workload request must have been served exactly once — a request that
    was dropped or double-served raises :class:`~repro.exceptions.TraceError`
    since the golden column would be meaningless.
    """
    if report.batches is None:
        raise TraceError(
            "recording needs served batches; run with record_batches=True"
        )
    requests = workload.requests
    tenant_index = {spec.tenant_id: t
                    for t, spec in enumerate(workload.specs)}

    records = np.zeros(len(requests), dtype=RECORD_DTYPE)
    for i, request in enumerate(requests):
        if request.seq != i:
            raise TraceError(
                f"workload request {i} carries seq {request.seq}; recording "
                f"needs seq-stamped requests (build_workload stamps them)"
            )
        packet = request.packet
        records[i] = (
            request.time,
            tenant_index[request.tenant_id],
            request.flow_id,
            packet.src_ip,
            packet.dst_ip,
            packet.src_port,
            packet.dst_port,
            packet.protocol,
            0,
            -1,
        )

    served, decisions = fold_batches_by_seq(report.batches, len(requests))
    for seq, priority in decisions:
        if priority is not None:
            records[seq]["golden_matched"] = 1
            records[seq]["golden_priority"] = priority
    dropped = int(np.count_nonzero(served == 0))
    duplicated = int(np.count_nonzero(served > 1))
    if dropped or duplicated:
        raise TraceError(
            f"recording is inconsistent: {dropped} request(s) never served, "
            f"{duplicated} served more than once"
        )

    return ServingTrace(
        specs=list(workload.specs),
        rulesets=dict(workload.rulesets),
        records=records,
        updates=list(workload.updates),
        seed=seed,
        scenario=dict(scenario or {}),
    )


@dataclass
class RecordOutcome:
    """What :func:`record_serving` produced: the run, the trace, the file."""

    result: "ServingResult"
    trace: ServingTrace
    path: Optional[Path] = None


def record_serving(path: Optional[Union[str, Path]] = None,
                   config: ServingConfig = ServingConfig(
                       background_swaps=False),
                   **scenario) -> RecordOutcome:
    """Run a serving scenario and record it as a replayable trace.

    ``scenario`` takes every workload keyword of
    :func:`repro.harness.serving.run_serving`; ``config`` is how the
    recording run is served.  ``record_batches`` is forced on (the golden
    column comes from the served batches), and the default config swaps
    synchronously so the golden column is a pure function of the trace
    clock — a config of your own should say ``background_swaps=False`` too.
    When ``path`` is given the trace is also written to disk.
    """
    from repro.harness.serving import run_serving

    config = replace(config, record_batches=True)
    result = run_serving(config, **scenario)
    metadata = {
        key: value for key, value in scenario.items()
        if isinstance(value, (int, float, str, bool, type(None)))
    }
    metadata.update(families=list(scenario.get("families", DEFAULT_FAMILIES)),
                    background_swaps=config.background_swaps,
                    record_batches=True)
    trace = trace_from_run(
        result.workload,
        result.report,
        seed=scenario.get("seed", 0),
        scenario=metadata,
    )
    written = None
    if path is not None:
        written = write_trace(trace, path)
    return RecordOutcome(result=result, trace=trace, path=written)
