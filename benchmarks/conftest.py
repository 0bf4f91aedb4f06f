"""Shared benchmark fixtures.

Every figure benchmark runs at the "tiny" experiment scale by default so the
whole suite finishes in minutes on a laptop CPU.  Set ``REPRO_SCALE=small``
(or ``paper``) in the environment to run larger reproductions; the figure
code is identical, only the workload sizes and training budgets change.

Heavy experiment functions are benchmarked with ``rounds=1`` — the quantity
of interest is the figure data they produce (printed and attached to
``benchmark.extra_info``), not sub-millisecond timing stability.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import get_scale
from repro.harness.scales import ExperimentScale

#: Where the checked-in scorecard baselines live (regenerate them with
#: ``scripts/make_bench_baselines.py`` when a counter change is intentional).
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def pytest_report_header(config):
    scale = os.environ.get("REPRO_SCALE", "tiny")
    return f"repro experiment scale: {scale}"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale used by every figure benchmark."""
    return get_scale(os.environ.get("REPRO_SCALE", "tiny"))


@pytest.fixture
def run_once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture
def bench_gate():
    """Gate a :class:`BenchRecord` against its checked-in baseline.

    The shared machinery behind the scorecard-backed acceptance benchmarks
    (engine throughput, serving hotswap/retrain): config and
    deterministic counters must match the baseline bit-for-bit; timings are
    not judged — hard-coded ratio asserts measured the CI machine, not the
    code.
    """
    from repro.obs import compare_records, read_bench

    def _gate(record, baseline_filename):
        baseline = read_bench(BASELINE_DIR / baseline_filename)
        report = compare_records(record, baseline)
        assert report.ok, "\n".join(
            f"{check.kind}:{check.metric} run={check.run_value} "
            f"baseline={check.baseline_value} ({check.detail})"
            for check in report.failures
        )
        return report

    return _gate
