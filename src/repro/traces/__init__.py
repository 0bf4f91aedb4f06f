"""Trace capture and replay: recorded serving runs as versioned artifacts.

Every serving run so far re-rolled its traffic from a generator; this
package makes runs *reproducible byte-for-byte*.  A recorded
:class:`~repro.traces.format.ServingTrace` carries the tenant roster and
initial rulesets, every served packet (5-tuple, arrival time, tenant, flow
id) with the decision the live run made (the golden column), and the churn
sidecar — everything needed to replay the identical run through the full
serving stack (registry, batcher, hot swaps, retrains) and assert zero
decision diffs.  See docs/traces.md for the on-disk format and the
``repro trace`` CLI group for the command-line workflow.

Typical use::

    from repro.traces import record_serving, replay_trace

    record_serving("run.trace", num_tenants=2, families=("acl1",),
                   num_packets=5_000, churn_events=2, seed=0)
    # Another batch size forms other batches, never other decisions.
    outcome = replay_trace("run.trace", ServingConfig(max_batch=16))
    assert outcome.report.is_exact
"""

from repro.traces.format import (
    EVENT_DTYPE,
    RECORD_DTYPE,
    RULE_DTYPE,
    TRACE_FORMAT_VERSION,
    TRACE_MAGIC,
    ServingTrace,
)
from repro.traces.io import TraceReader, TraceWriter, read_trace, write_trace
from repro.traces.record import RecordOutcome, record_serving, trace_from_run
from repro.traces.replay import (
    ReplayMismatch,
    ReplayOutcome,
    ReplayReport,
    replay_trace,
    verify_replay,
)
from repro.traces.diff import TraceDiff, diff_traces

__all__ = [
    "EVENT_DTYPE",
    "RECORD_DTYPE",
    "RULE_DTYPE",
    "TRACE_FORMAT_VERSION",
    "TRACE_MAGIC",
    "ServingTrace",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "write_trace",
    "RecordOutcome",
    "record_serving",
    "trace_from_run",
    "ReplayMismatch",
    "ReplayOutcome",
    "ReplayReport",
    "replay_trace",
    "verify_replay",
    "TraceDiff",
    "diff_traces",
]
