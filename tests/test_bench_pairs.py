"""``scripts/bench_pairs.py``: the alternating-pairs protocol as a tool."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
TRAJECTORY = ROOT / "benchmarks" / "trajectory"


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


@pytest.mark.parametrize("path", sorted(TRAJECTORY.glob("*.json")),
                         ids=lambda path: path.name)
def test_trajectory_record_recomputes_from_its_runs(bench_pairs, path):
    saved = json.loads(path.read_text())
    assert saved["version"] == bench_pairs.RECORD_VERSION
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert saved["workload"] in {w["name"] for w in bench["workloads"]}
    for side in ("parent", "change"):
        assert len(saved[side]["sha"]) == 40
        runs = saved["runs"][side]
        assert len(runs) == saved["pairs"]
        assert all(run["failed"] == 0 and run["correct"] for run in runs)
    assert not saved["change"]["dirty"]
    assert {m["name"] for m in saved["metrics"]} == set(saved["rows"])
    assert bench_pairs.recompute(saved) == saved["rows"]


def test_trajectory_is_not_empty():
    assert list(TRAJECTORY.glob("*.json"))


def test_both_sides_run_from_sibling_copies(bench_pairs, monkeypatch,
                                            capsys):
    """Neither side runs from the working tree: the parent is unpacked and
    the change copied into sibling directories under one temp dir."""
    in_repo = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True)
    if in_repo.returncode:
        pytest.skip("not a git checkout: there is no parent to unpack")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seen = []

    def fake_run(checkout, flags):
        seen.append(checkout)
        assert (checkout / "perfbench" / "run.py").is_file()
        if len(seen) == 2:  # pair 1 runs the parent, then the change
            assert (checkout / "scripts" / "bench_pairs.py").read_bytes() \
                == SCRIPT.read_bytes()
        return {"correct": True, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0}
                            for m in bench["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["HEAD", "--workload", "serve_cold",
                             "--pairs", "2"]) == 0
    capsys.readouterr()
    parent, change = seen[0], seen[1]
    assert seen == [parent, change, change, parent]
    assert parent != change and parent.parent == change.parent
    for checkout in (parent, change):
        assert ROOT.resolve() not in (checkout.resolve(),
                                      *checkout.resolve().parents)


def test_aa_unpacks_the_same_ref_on_both_sides(bench_pairs, monkeypatch,
                                              capsys, tmp_path):
    """``--aa`` runs ``PARENT_REF`` against itself: both sides are unpacked
    from the ref, nothing is copied from the working tree, and the record
    says so."""
    in_repo = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True)
    if in_repo.returncode:
        pytest.skip("not a git checkout: there is no ref to unpack")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unpacked, seen = [], []
    real_unpack = bench_pairs.unpack

    def spy_unpack(ref, into):
        unpacked.append((ref, into))
        real_unpack(ref, into)

    def no_copy(into):
        raise AssertionError("--aa copied the working tree")

    def fake_run(checkout, flags):
        seen.append(checkout)
        assert (checkout / "perfbench" / "run.py").is_file()
        return {"correct": True, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0}
                            for m in bench["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "unpack", spy_unpack)
    monkeypatch.setattr(bench_pairs, "copy_tree", no_copy)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "aa.json"
    assert bench_pairs.main(["HEAD", "--workload", "serve_cold", "--pairs",
                             "2", "--aa", "--json", str(out)]) == 0
    assert "A/A" in capsys.readouterr().out
    parent, change = seen[0], seen[1]
    assert seen == [parent, change, change, parent]
    assert unpacked == [("HEAD", parent), ("HEAD", change)]
    saved = json.loads(out.read_text())
    head = in_repo.stdout.decode().strip()
    assert saved["aa"] is True
    assert saved["parent"]["sha"] == saved["change"]["sha"] == head
    assert not saved["change"]["dirty"]
    assert bench_pairs.recompute(saved) == saved["rows"]


def test_two_tiny_pairs_against_head(bench_pairs, tmp_path):
    in_repo = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True)
    if in_repo.returncode:
        pytest.skip("not a git checkout: there is no parent to unpack")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--workload", "serve_cold",
         "--seconds", "0.2", "--scale", "0.02", "--pairs", "2", "--seed",
         "3", "--json", str(tmp_path / "record.json")], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
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
    # The record carries what was printed, and recomputes from its runs.
    saved = json.loads((tmp_path / "record.json").read_text())
    assert (saved["workload"], saved["seed"], saved["pairs"]) == \
        ("serve_cold", 3, 2)
    assert saved["parent"]["sha"] == saved["change"]["sha"] \
        == in_repo.stdout.decode().strip()
    assert saved["aa"] is False
    assert bench_pairs.recompute(saved) == saved["rows"]
    assert saved["rows"]["tree_accesses"]["verdict"] == "level"
    with pytest.raises(ValueError, match="version"):
        bench_pairs.recompute({**saved, "version": 0})
