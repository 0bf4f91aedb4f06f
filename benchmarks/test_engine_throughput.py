"""Engine throughput: compiled flat-array execution, with and without the
flow cache.

The acceptance bar for the dataplane engine used to be a hard-coded
"compiled must be >= 10x the interpreter" assert.  Ratios like that are a
property of the machine running the suite, not of the code — a 1-CPU CI
container and a 16-core workstation produce wildly different speedups from
the same commit.  The bar now lives in checked-in baseline records
(``benchmarks/baselines/BENCH_engine_throughput_*.json``) and is gated with
the same ``repro bench compare`` semantics as the CI scorecard job:
config and deterministic counters (mismatches, packet/subtree/cache
tallies) must match the baseline bit-for-bit everywhere; the pps
timings are printed and not judged.  Regenerate the baselines with
``scripts/make_bench_baselines.py`` when a counter change is intentional.
"""

from __future__ import annotations

import pytest

from repro.harness import format_table
from repro.harness.scorecard import (THROUGHPUT_SCORECARDS,
                                     throughput_bench_filename,
                                     throughput_scorecard_record)


@pytest.mark.parametrize("kind", sorted(THROUGHPUT_SCORECARDS))
def test_engine_throughput_vs_baseline(kind, run_once, bench_gate):
    """Each throughput scorecard matches its checked-in baseline record."""
    record = run_once(throughput_scorecard_record, kind)
    print(f"\n=== Engine throughput scorecard: {kind} ===")
    print(format_table(
        ["metric", "value"],
        [[name, f"{value:,.0f}"] for name, value
         in sorted({**record.counters, **record.timings}.items())],
    ))

    assert record.counters["mismatches"] == 0, \
        "compiled engine disagrees with linear search"
    assert record.timings["compiled_pps"] > 0

    bench_gate(record, throughput_bench_filename(kind))
