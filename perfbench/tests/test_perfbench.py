"""Self-test of the benchmark: every metric reported, spans add up, no leak.

Runs the real driver once at ``--scale 0.02`` (seconds, not minutes) and
checks its results file against ``BENCHMARK.json``; the timing values at
that scale mean nothing and are only required to be finite.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import compare  # noqa: E402
from perfbench.tracing import TARGETS, Span, Tracer, resolve, self_times, \
    totals_by_repeat  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.fixture(scope="module")
def driver(tmp_path_factory):
    """(results.json, printed report) of one tiny run of every workload."""
    out = tmp_path_factory.mktemp("perfbench")
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--seed", "5", "--scale", "0.02",
         "--seconds", "0.2", "--out", str(out)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "results.json").read_text()), done.stdout


def test_every_metric_of_every_workload_is_reported(driver):
    results, printed = driver
    assert list(results["workloads"]) == WORKLOADS
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "scale",
                "repeats", "runs"):
        assert key in results["fingerprint"]
    for workload, entry in results["workloads"].items():
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for verify in entry["verify"]:
            assert verify["mismatches"] == 0 and verify["checked"] >= 200
        for kind, never_zero in (("end_to_end", True), ("per_layer", False)):
            assert set(entry[kind]) == {m["name"] for m in BENCH[kind]}
            for metric in BENCH[kind]:
                value = entry[kind][metric["name"]]["value"]
                assert math.isfinite(value), (workload, metric["name"])
                if never_zero:
                    assert value > 0, (workload, metric["name"])
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f"{metric['name']} " in printed
    assert printed.count("failed_share") == len(WORKLOADS)


def test_self_times_add_up_to_the_traced_wall(driver):
    results, _ = driver
    for workload, entry in results["workloads"].items():
        traced = entry["traced"]
        assert 0 <= traced["self_sum_s"] <= traced["traced_wall_s"]
        assert traced["root_self_s"] >= 0
        assert traced["self_sum_s"] + traced["root_self_s"] == pytest.approx(
            traced["traced_wall_s"], rel=0.01)
        assert entry["per_layer"]["serve.unattributed_s"]["value"] >= 0
        assert "trace.overhead_share" in entry["per_layer"]


def test_layers_a_workload_bypasses_read_zero(driver):
    results, _ = driver
    for workload, entry in results["workloads"].items():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        if workload != "serve_churn":
            assert layer["ingest.admit_s"] == layer["ingest.offered"] == 0
            assert layer["serve.update_s"] == layer["serve.swaps"] == 0
        else:
            assert layer["ingest.offered"] == layer["ingest.admitted"] > 0
            assert layer["serve.swaps"] == layer["serve.updates"] > 0
            assert layer["engine.partial_compile_calls"] > 0
        if workload.startswith("serve_"):
            assert layer["serve.offer_calls"] == layer["workloads.requests"]
            assert layer["engine.lookup_calls"] == layer["serve.batches"] > 0
        if workload == "train":
            assert layer["neurocuts.rollouts"] > 0 and layer["rl.act_calls"] > 0
        else:
            assert layer["neurocuts.rollout_s"] == layer["rl.update_s"] == 0
        if workload == "engine_scan":
            assert layer["engine.walk_packets"] > 0
            assert layer["engine.lookup_calls"] == layer["engine.pack_calls"] == 0


def test_result_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "engine_scan", "--seed", "9", "--seconds", "0.1", "--trace", "0",
         "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_tracer_restores_every_wrapped_attribute():
    def current():
        return [resolve(t).__dict__[t.attr] for t in TARGETS]

    originals = current()
    tracer = Tracer("test")
    with tracer.record(0):
        assert all(now is not was for now, was in zip(current(), originals))
    assert all(now is was for now, was in zip(current(), originals))
    with pytest.raises(RuntimeError):
        with tracer.record(1):
            raise RuntimeError("the timed section failed")
    assert all(now is was for now, was in zip(current(), originals))


def test_wrapped_calls_become_nested_spans():
    from repro.serve.batcher import BatchPolicy, MicroBatcher, Request

    batcher = MicroBatcher(BatchPolicy(max_batch=2))
    tracer = Tracer("test")
    with tracer.record(7), tracer.span("root"):
        batcher.offer(Request("t", None, time=0.0))
        released = batcher.offer(Request("t", None, time=0.0))
    assert [len(batch) for _, batch in released] == [2]
    names = [s.name for s in tracer.spans]
    assert names == ["root", "serve.batcher.offer", "serve.batcher.poll",
                     "serve.batcher.offer", "serve.batcher.poll"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert {s.repeat for s in tracer.spans} == {7}
    totals = totals_by_repeat(tracer.spans)[7]
    assert totals["serve.batcher.offer"].calls == 2
    assert sum(t.own for t in totals.values()) == pytest.approx(
        totals["root"].total)


def test_self_time_is_duration_minus_child_intervals():
    spans = [
        Span("parent", 0.0, 10.0, -1, 0, 0),
        Span("child", 2.0, 5.0, 0, 0, 0),
        Span("grandchild", 2.5, 3.0, 1, 0, 0),
        Span("child", 6.0, 7.0, 0, 0, 0),
        Span("other_repeat", 20.0, 21.0, -1, 1, 4),
    ]
    assert self_times(spans) == [6.0, 2.5, 0.5, 1.0, 1.0]
    totals = totals_by_repeat(spans)
    assert totals[0]["child"] == (2, 4.0, 3.5, 0)
    assert totals[1]["other_repeat"] == (1, 1.0, 1.0, 4)
    assert sum(t.own for t in totals[0].values()) == totals[0]["parent"].total


def test_compare_applies_each_bound(driver):
    # Tiny runs are noisy: pin every row's quartiles to its median first.
    steady = copy.deepcopy(driver[0])
    for entry in steady["workloads"].values():
        for metric in entry["end_to_end"].values():
            metric["q1"] = metric["q3"] = metric["value"]
    assert compare.compare(steady, steady, BENCH)[1] == 0
    slower = copy.deepcopy(steady)
    row = slower["workloads"]["engine_scan"]["end_to_end"]
    row["throughput_per_s"]["value"] *= 0.7
    row["tree_accesses"]["value"] += 1
    lines, regressions = compare.compare(steady, slower, BENCH)
    assert regressions == 2
    assert sum("REGRESSION" in line for line in lines) == 2
    noisy = copy.deepcopy(steady)
    noisy["workloads"]["train"]["end_to_end"]["latency_p99_ms"]["q3"] *= 3
    lines, regressions = compare.compare(steady, noisy, BENCH)
    assert regressions == 0
    assert sum("unresolved" in line for line in lines) == 1
    failing = copy.deepcopy(steady)
    failing["workloads"]["serve_hot"]["failed_share"] = 0.01
    assert compare.compare(steady, failing, BENCH)[1] == 1
