#!/usr/bin/env python
"""Record a serving run, then replay it byte-for-byte from the trace file.

Every serving example so far re-rolled its traffic from a generator; this
one captures a run as a *trace* — a binary file holding the tenant roster,
every served packet with the decision the live run made (the golden
column), and the mid-trace churn schedule — and then replays it through a
freshly built serving stack.  The replay serves the identical packets on
the trace's own clock, crosses the same hot swaps, and is verified against
the golden column: zero drops, zero decision diffs.  Replays are also free
to change serving knobs (here: two other batch sizes, one with the flow
cache off), because decisions depend only on each packet's epoch ruleset.

Recorded traces are how serving bugs become regression tests: check the
file in, replay it in CI, and any behaviour change shows up as a diff.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.harness import format_table
from repro.serve import ServingConfig
from repro.traces import diff_traces, read_trace, record_serving, \
    replay_trace, trace_from_run

SCENARIO = dict(
    num_tenants=3,
    families=("acl1", "ipc1"),
    num_rules=120,
    num_packets=8_000,
    num_flows=400,
    churn_events=3,
    seed=0,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="trace-replay-"))
    trace_path = workdir / "serving.trace"

    # 1. Record: run the live scenario (synchronous swaps, so the golden
    #    column is a pure function of the trace clock) and write the trace.
    outcome = record_serving(trace_path, **SCENARIO)
    print(f"recorded {outcome.trace.describe()}")
    print(f"wrote {trace_path} ({trace_path.stat().st_size:,} bytes)\n")

    # 2. Replay from the file alone: the registry, engines, batcher, and
    #    hot swaps are rebuilt from the trace, no generator involved.
    replay = replay_trace(read_trace(trace_path),
                          ServingConfig(max_batch=32))
    print("replay telemetry (batch size 32, still exact):")
    print(format_table(["metric", "value"], replay.result.report.rows()))
    print(format_table(["check", "count"], replay.report.rows()))
    assert replay.report.is_exact, replay.report.mismatches

    # 3. Replay again at batch size 16 with the flow cache off: other
    #    batches, the same decisions.
    rebatched = replay_trace(read_trace(trace_path), ServingConfig(
        max_batch=16, flow_cache_size=None))
    print(f"\nreplay at batch size 16, no flow cache: "
          f"{rebatched.result.report.num_batches} batches, "
          f"{rebatched.report.num_served} served, "
          f"{rebatched.report.num_mismatches} mismatches")
    assert rebatched.report.is_exact

    # 4. That replay re-recorded as a trace diffs clean against its source
    #    — the regression gate CI runs on every push.
    replayed = trace_from_run(rebatched.result.workload,
                              rebatched.result.report,
                              seed=outcome.trace.seed,
                              scenario=outcome.trace.scenario)
    diff = diff_traces(outcome.trace, replayed)
    print(f"re-recorded replay vs the source: "
          f"{'identical' if diff.identical else diff.lines()}")
    assert diff.identical


if __name__ == "__main__":
    main()
