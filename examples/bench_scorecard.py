#!/usr/bin/env python
"""The perf observatory end to end: scorecards, metrics, regression gate.

Runs the canonical bench scorecard (``repro.harness.scorecard``) — one
small compiled-engine benchmark and one small multi-tenant serving run —
writes both as versioned ``BENCH_<area>.json`` records, prints the phase
metrics the serving stack collected along the way (compile, swap install,
batch flush, queue wait), and finally gates the fresh records against the
checked-in baselines under ``benchmarks/baselines/`` exactly like the CI
``bench-scorecard`` job does: config and deterministic counters must match
bit-for-bit; timings are informational (timing claims are ``perfbench``
pairs, see perfbench/README.md).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.harness import format_table
from repro.harness.scorecard import run_scorecard
from repro.harness.serving import run_serving
from repro.obs import compare_records, read_bench
from repro.serve import ServingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"


def main() -> int:
    # 1. A quick serving run to show the metrics registry itself: every
    #    lifecycle phase shows up as a timing series with raw samples.
    result = run_serving(ServingConfig(),
                         num_tenants=2, num_rules=60, num_packets=2000,
                         num_flows=100, seed=0)
    metrics = result.report.metrics
    print("phase metrics of a small serving run:")
    print(format_table(
        ["timing series", "count", "mean (ms)", "p99 (ms)"],
        [[name, series.count, f"{series.mean * 1e3:.3f}",
          f"{series.percentile(99) * 1e3:.3f}"]
         for name, series in sorted(metrics.timings.items())],
    ))
    print(format_table(
        ["counter", "value"],
        [[name, counter.value]
         for name, counter in sorted(metrics.counters.items())],
    ))

    # 2. The canonical scorecard: two pinned benchmark runs, written as
    #    versioned JSON records.
    out_dir = Path(tempfile.mkdtemp(prefix="bench_scorecard_"))
    paths = run_scorecard(out_dir)
    for area, path in sorted(paths.items()):
        record = read_bench(path)
        print(f"\n{area} scorecard -> {path}")
        print(f"  {len(record.counters)} counters, "
              f"{len(record.timings)} timings, "
              f"config {record.config}")

    # 3. The regression gate against the checked-in baselines: config
    #    and counters exactly, as the CI bench-scorecard job does.
    print(f"\ngating against {BASELINE_DIR}")
    failed = False
    for area, path in sorted(paths.items()):
        baseline_path = BASELINE_DIR / path.name
        report = compare_records(read_bench(path), read_bench(baseline_path))
        verdict = "ok" if report.ok else \
            f"{len(report.failures)} regression(s)"
        print(f"  {area}: {len(report.checks)} checks, {verdict}")
        for check in report.failures:
            print(f"    FAIL {check.kind}:{check.metric} "
                  f"run={check.run_value} baseline={check.baseline_value} "
                  f"({check.detail})")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
