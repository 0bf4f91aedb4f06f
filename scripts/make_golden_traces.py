#!/usr/bin/env python
"""Regenerate the checked-in golden traces under tests/data/.

The golden traces are the regression fixtures ``tests/test_trace_replay.py``
replays: small multi-tenant churn scenarios recorded under the determinism
contract (synchronous swaps), so their golden columns are a pure function
of the trace clock and stay valid on any machine.  Regenerate them only
when the trace format version is bumped or the scenario definitions below
change — a regeneration that changes the golden *decisions* on an unchanged
scenario means serving behaviour changed and deserves scrutiny, not a
fixture refresh.

Run from the repository root::

    PYTHONPATH=src python scripts/make_golden_traces.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.traces import record_serving  # noqa: E402

DATA_DIR = REPO_ROOT / "tests" / "data"

#: The golden scenarios, keyed by file name.  ``acl1_churn`` is the basic
#: multi-tenant hot-swap gate; ``acl1_retrain_churn`` schedules enough churn
#: (4 events x 6 updates, round-robin over 2 tenants) that replaying it with
#: ``retrain_threshold=12`` forces a mid-trace retrain on every tenant.
SCENARIOS = {
    "acl1_churn.trace": dict(
        num_tenants=2, families=("acl1",), num_rules=50, num_packets=600,
        num_flows=96, churn_events=2, seed=11,
    ),
    "acl1_retrain_churn.trace": dict(
        num_tenants=2, families=("acl1",), num_rules=40, num_packets=800,
        num_flows=96, churn_events=4, seed=23,
    ),
    # The widest golden: four tenants over two seed families (acl1, ipc1),
    # with churn on both families' trees.  The file keeps the name it was
    # recorded under (the checked-in bytes never change); it is replayed
    # single-process in tests/test_trace_replay.py.
    "acl1_rebalance.trace": dict(
        num_tenants=4, families=("acl1", "ipc1"), num_rules=60,
        num_packets=2_000, num_flows=160, churn_events=2, seed=31,
    ),
}


def main() -> int:
    for name, scenario in SCENARIOS.items():
        path = DATA_DIR / name
        outcome = record_serving(path, **scenario)
        print(f"wrote {path} ({path.stat().st_size:,} bytes): "
              f"{outcome.trace.describe()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
