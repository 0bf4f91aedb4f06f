#!/usr/bin/env python
"""Record a serving run, then replay it byte-for-byte from the trace file.

Every serving example so far re-rolled its traffic from a generator; this
one captures a run as a *trace* — a binary file holding the tenant roster,
every served packet with the decision the live run made (the golden
column), and the mid-trace churn schedule — and then replays it through a
freshly built serving stack.  The replay serves the identical packets on
the trace's own clock, crosses the same hot swaps, and is verified against
the golden column: zero drops, zero decision diffs.  Replays are also free
to change serving knobs (here: a different batch size and a sharded run),
because decisions depend only on each packet's epoch ruleset.

Recorded traces are how serving bugs become regression tests: check the
file in, replay it in CI, and any behaviour change shows up as a diff.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.harness import format_table
from repro.serve import ServingConfig
from repro.traces import diff_traces, read_trace, record_serving, replay_trace

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
                          ServingConfig(max_batch=32, background_swaps=False))
    print("replay telemetry (batch size 32, still exact):")
    print(format_table(["metric", "value"], replay.result.rows()))
    print(format_table(["check", "count"], replay.report.rows()))
    assert replay.report.is_exact, replay.report.mismatches

    # 3. Shard the same trace across two logical shards — decisions are
    #    tenant-local, so the golden column still matches exactly.
    sharded = replay_trace(read_trace(trace_path), ServingConfig(
        workers=2, background_swaps=False))
    print(f"\nsharded replay: {sharded.result.num_shards} shards, "
          f"{sharded.report.num_served} served, "
          f"{sharded.report.num_mismatches} mismatches")
    assert sharded.report.is_exact

    # 4. A replay re-recorded as a trace diffs clean against its source —
    #    the regression gate CI runs on every push.
    diff = diff_traces(outcome.trace, read_trace(trace_path))
    print(f"\ntrace diff vs itself on disk: "
          f"{'identical' if diff.identical else diff.lines()}")


if __name__ == "__main__":
    main()
