"""``scripts/bench_pairs.py``: the alternating-pairs protocol as a tool."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_judge_applies_the_nine_in_ten_and_spread_rules(bench_pairs):
    higher = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0,
              101.0]
    row = bench_pairs.judge(higher, parent, [p * 1.3 for p in parent])
    assert (row["won"], row["lost"]) == (10, 0)
    assert row["claimable"] and not row["regressed"]
    # Ahead in every pair but inside the parent's own quartile spread.
    row = bench_pairs.judge(higher, parent, [p + 0.5 for p in parent])
    assert row["won"] == 10 and not row["beyond_spread"]
    assert not row["claimable"]
    # Far ahead at the median, but only eight pairs of ten.
    mixed = [p * 1.3 for p in parent[:8]] + [p * 0.9 for p in parent[8:]]
    row = bench_pairs.judge(higher, parent, mixed)
    assert (row["won"], row["lost"]) == (8, 2) and not row["claimable"]
    lower = {"name": "latency_p99_ms", "better": "lower", "bound": 0.25}
    row = bench_pairs.judge(lower, parent, [p * 1.4 for p in parent])
    assert row["lost"] == 10 and row["regressed"]
    assert row["worse_by"] == pytest.approx(0.4)
    # Ties count for neither side.
    row = bench_pairs.judge(lower, [6.75] * 3, [6.75] * 3)
    assert (row["won"], row["lost"], row["claimable"]) == (0, 0, False)


def test_two_tiny_pairs_against_head():
    in_repo = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True)
    if in_repo.returncode:
        pytest.skip("not a git checkout: there is no parent to unpack")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--workload", "serve_cold",
         "--seconds", "0.2", "--scale", "0.02", "--pairs", "2", "--seed",
         "3"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    printed = done.stdout.splitlines()
    assert printed[0].startswith("pair 1/2: parent")
    assert printed[1].startswith("pair 2/2: change")  # who goes first flips
    rows = {line.split()[0]: line for line in printed[4:]}
    assert {"throughput_per_s", "latency_p99_ms", "tree_accesses",
            "peak_rss_mb"} <= set(rows)
    # The exact metrics tie in every pair and read level.
    assert rows["tree_accesses"].split()[-3:-1] == ["0/2", "+0.0000"]
    assert printed[-1] == "failed: parent 0, change 0"
