"""Golden-trace regression gates: replay checked-in traces, expect zero diffs.

The traces under ``tests/data/`` were recorded under the determinism
contract (synchronous swaps; see docs/traces.md), so the decisions they
carry are a pure function of the trace clock.  Replaying them through the
full serving stack — across mid-trace hot swaps and a forced retrain, at
any batch size — must reproduce every decision bit-for-bit.
A failure here means serving behaviour changed for recorded traffic: a real
regression, not flake.

Regenerate the fixtures only on a deliberate format/scenario change:
``PYTHONPATH=src python scripts/make_golden_traces.py``.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.harness.serving import run_serving
from repro.serve import RetrainPolicy, ServingConfig
from repro.traces import (
    ServingTrace,
    diff_traces,
    read_trace,
    record_serving,
    replay_trace,
    trace_from_run,
)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CHURN = DATA_DIR / "acl1_churn.trace"
GOLDEN_RETRAIN = DATA_DIR / "acl1_retrain_churn.trace"
#: Four tenants over two seed families (acl1, ipc1): the widest golden.
GOLDEN_FOUR_TENANT = DATA_DIR / "acl1_rebalance.trace"


def _sync(**fields):
    """A config under the determinism contract: synchronous swaps."""
    return ServingConfig(background_swaps=False, **fields)


@pytest.fixture(scope="module")
def churn_trace():
    return read_trace(GOLDEN_CHURN)


@pytest.fixture(scope="module")
def retrain_trace():
    return read_trace(GOLDEN_RETRAIN)


class TestGoldenReplay:
    def test_single_process_replay_matches_golden(self, churn_trace):
        outcome = replay_trace(churn_trace)
        report = outcome.report
        assert report.is_exact, f"mismatches: {report.mismatches}"
        assert report.num_served == churn_trace.num_records
        # The trace carries mid-run churn, so the replay crossed hot swaps.
        assert report.counters["num_updates"] == 2
        assert report.counters["swaps"] == 2

    def test_four_tenant_two_family_replay_matches_golden(self):
        trace = read_trace(GOLDEN_FOUR_TENANT)
        assert len(trace.specs) == 4
        assert {spec.seed_name for spec in trace.specs} == {"acl1", "ipc1"}
        report = replay_trace(trace).report
        assert report.is_exact, f"mismatches: {report.mismatches}"
        assert report.num_served == trace.num_records == 2000
        assert report.counters["num_updates"] == report.counters["swaps"] \
            == 2

    def test_replay_across_forced_retrain(self, retrain_trace):
        """Decisions stay golden even when the replay retrains mid-trace.

        The quality gate is disabled so the tiny-budget retrain is adopted
        unconditionally — the point here is exactness across the adoption
        swap, not whether a 250-timestep tree beats the incumbent.
        """
        policy = RetrainPolicy(timesteps=250, max_iterations=1,
                               backend="serial", quality_gate=False,
                               seed=retrain_trace.seed)
        outcome = replay_trace(retrain_trace, _sync(retrain_threshold=12,
                                                    retrain_policy=policy))
        report = outcome.report
        assert report.is_exact, f"mismatches: {report.mismatches}"
        assert report.counters["retrains_installed"] >= 1
        assert report.counters["retrains_rejected"] == 0

    def test_replay_retrain_quality_gate_keeps_decisions_golden(
            self, retrain_trace):
        """With the gate armed a losing retrain is rejected, not adopted —
        and the replay still verifies exactly (no swap, no divergence)."""
        policy = RetrainPolicy(timesteps=250, max_iterations=1,
                               backend="serial", seed=retrain_trace.seed)
        outcome = replay_trace(retrain_trace, _sync(retrain_threshold=12,
                                                    retrain_policy=policy))
        report = outcome.report
        assert report.is_exact, f"mismatches: {report.mismatches}"
        counters = report.counters
        assert counters["retrains_triggered"] >= 1
        assert counters["retrains_installed"] \
            + counters["retrains_rejected"] \
            + counters["retrains_discarded"] == counters["retrains_triggered"]
        # Rejected retrains must not swap: each rule update swaps once and
        # each *installed* retrain swaps once, nothing else.
        assert counters["swaps"] == counters["num_updates"] \
            + counters["retrains_installed"]

    def test_replay_is_deterministic_across_runs(self, churn_trace):
        """Acceptance gate: two replays agree on every telemetry counter."""
        single = [replay_trace(churn_trace).report for _ in range(2)]
        assert single[0].is_exact and single[1].is_exact
        assert single[0].counters == single[1].counters

    def test_decisions_are_batching_invariant(self, churn_trace):
        """Golden decisions depend on epochs, not how packets batch."""
        for max_batch in (16, 64, 256):
            outcome = replay_trace(churn_trace, _sync(max_batch=max_batch))
            assert outcome.report.is_exact, \
                f"max_batch={max_batch}: {outcome.report.mismatches}"

    def test_ingest_enabled_replay_stays_bit_exact(self, churn_trace):
        """Trace replay bypasses admission timing: the trace clock is
        authoritative (its packets were already admitted when recorded), so
        even a draconian ingest config cannot drop, delay, or reorder a
        replayed packet — golden traces stay bit-exact and the ingest
        tallies stay zero (docs/ingest.md)."""
        from repro.ingest import IngestConfig

        draconian = IngestConfig(tenant_rate=1.0, tenant_burst=1,
                                 queue_limit=1)
        outcome = replay_trace(churn_trace, _sync(ingest=draconian))
        report = outcome.report
        assert report.is_exact, f"mismatches: {report.mismatches}"
        assert report.num_served == churn_trace.num_records
        assert report.counters["ingest_offered"] == 0
        assert report.counters["ingest_admitted"] == 0
        assert report.counters["ingest_throttled"] == 0
        assert report.counters["ingest_shed"] == 0
        # Identical counters to an ingest-free replay: the flag is inert
        # on the trace path by construction, not merely harmless.
        assert report.counters == replay_trace(churn_trace).report.counters


class TestReplayScorecard:
    def test_config_block_tells_two_replays_apart(self, tmp_path):
        """A retraining replay must not pass for a plain one: the scorecard
        ``config`` block is the whole ``ServingConfig``, so ``bench compare``
        reports the one knob that differs as config drift."""
        from repro.obs import compare_records, read_bench

        policy = RetrainPolicy(timesteps=250, max_iterations=1,
                               backend="serial", quality_gate=False, seed=23)
        records = []
        for threshold in (12, 10_000):
            path = tmp_path / f"BENCH_replay_{threshold}.json"
            outcome = replay_trace(
                GOLDEN_RETRAIN,
                _sync(retrain_threshold=threshold, retrain_policy=policy),
                bench_path=path)
            assert outcome.report.is_exact
            records.append(read_bench(path))
        retraining, plain = records
        assert retraining.area == plain.area == "replay"
        assert retraining.name == "replay:acl1_retrain_churn"
        assert retraining.counters["retrains_installed"] >= 1
        assert plain.counters["retrains_installed"] == 0
        assert retraining.counters["verify_mismatches"] == 0
        assert retraining.counters["num_records"] == 800
        assert retraining.config["retrain_threshold"] == 12
        assert retraining.config["retrain_policy"]["timesteps"] == 250
        assert sorted(retraining.config) == sorted(
            [field.name for field in fields(ServingConfig)] + ["verify"])
        assert retraining.config["verify"] is True
        report = compare_records(retraining, plain)
        drift = [check.metric for check in report.failures
                 if check.kind == "config"]
        assert drift == ["retrain_threshold"]


class TestChurnDeterminism:
    def test_run_serving_same_seed_produces_identical_epochs(self):
        """Two runs with one seed agree on churn and per-tenant epochs.

        The precondition for golden traces staying valid: the churn
        schedule (and therefore every epoch boundary) must be a pure
        function of the scenario seed.
        """
        def run():
            result = run_serving(_sync(), num_tenants=2, families=("acl1",),
                                 num_rules=30, num_packets=400,
                                 num_flows=48, churn_events=2, seed=13)
            updates = [(u.tenant_id, u.time, u.adds, u.removes)
                       for u in result.workload.updates]
            epochs = {t: result.registry.slot(t).epoch
                      for t in result.registry.tenants()}
            return updates, epochs

        a, b = run(), run()
        assert a[0] == b[0], "churn schedules diverged for one seed"
        assert a[1] == b[1], "engine epochs diverged for one seed"


class TestHarnessTracePath:
    def test_run_serving_replays_from_file(self, churn_trace):
        result = run_serving(_sync(record_batches=True),
                             trace_path=GOLDEN_CHURN)
        assert result.report.num_requests == churn_trace.num_records
        exactness = result.verify_exactness()
        assert exactness.is_exact
        assert exactness.num_post_swap > 0

    def test_trace_replay_defaults_retrains_to_serial(self, churn_trace):
        """Armed-but-untriggered retrain loop on the replay default policy.

        Without an explicit policy, a trace replay must build a *serial*
        controller seeded from the trace (the determinism contract), not
        the generation path's thread-backend default.
        """
        result = run_serving(_sync(record_batches=True,
                                   retrain_threshold=10_000),
                             trace_path=churn_trace)
        assert result.report.retrains_triggered == 0
        assert result.verify_exactness().is_exact

    def test_run_serving_accepts_loaded_trace(self, churn_trace):
        result = run_serving(_sync(record_batches=True, max_batch=16),
                             trace_path=churn_trace)
        assert result.report.num_requests == churn_trace.num_records
        assert result.verify_exactness().is_exact


class TestRecording:
    def test_recording_is_batching_invariant(self, tmp_path):
        """The golden column does not depend on how packets batch."""
        scenario = dict(num_tenants=2, families=("acl1",), num_rules=30,
                        num_packets=400, num_flows=64, churn_events=2,
                        seed=4)
        default = record_serving(tmp_path / "default.trace", **scenario)
        rebatched = record_serving(tmp_path / "rebatched.trace",
                                   _sync(max_batch=16, flow_cache_size=None),
                                   **scenario)
        assert np.array_equal(default.trace.records, rebatched.trace.records)
        assert default.trace.updates == rebatched.trace.updates
        assert default.trace.rulesets == rebatched.trace.rulesets

    def test_rerecorded_replay_diffs_clean(self, churn_trace, tmp_path):
        """replay --output's trace is byte-equal in every compared field."""
        outcome = replay_trace(churn_trace)
        replayed = trace_from_run(outcome.result.workload,
                                  outcome.result.report,
                                  seed=churn_trace.seed,
                                  scenario=churn_trace.scenario)
        diff = diff_traces(churn_trace, replayed)
        assert diff.identical, "\n".join(diff.lines())

    def test_diff_flags_golden_divergence(self, churn_trace):
        records = churn_trace.records.copy()
        records["golden_matched"][5] = 1 - records["golden_matched"][5]
        records["golden_priority"][7] += 1
        other = ServingTrace(specs=churn_trace.specs,
                             rulesets=churn_trace.rulesets,
                             records=records,
                             updates=churn_trace.updates,
                             seed=churn_trace.seed,
                             scenario=churn_trace.scenario)
        diff = diff_traces(churn_trace, other)
        assert not diff.identical
        assert diff.num_golden_diffs == 2
        assert diff.num_record_diffs == 0

    def test_diff_names_differing_spec_fields(self, churn_trace):
        from dataclasses import replace

        other = ServingTrace(
            specs=[replace(churn_trace.specs[0], binth=4)]
            + churn_trace.specs[1:],
            rulesets=churn_trace.rulesets,
            records=churn_trace.records,
            updates=churn_trace.updates,
            seed=churn_trace.seed,
            scenario=churn_trace.scenario,
        )
        diff = diff_traces(churn_trace, other)
        assert not diff.identical
        assert any("binth: 8 != 4" in line for line in diff.header_diffs)


class TestTraceCLI:
    def test_record_replay_verify_diff_loop(self, tmp_path, capsys):
        from repro.cli import main

        recorded = tmp_path / "cli.trace"
        replayed = tmp_path / "cli-replayed.trace"
        code = main(["trace", "record", "--tenants", "2",
                     "--families", "acl1", "--num-rules", "30",
                     "--num-packets", "300", "--num-flows", "48",
                     "--churn-events", "1", "--seed", "2",
                     "--output", str(recorded)])
        assert code == 0
        assert "golden column: 300/300" in capsys.readouterr().out

        code = main(["trace", "replay", str(recorded), "--verify",
                     "--output", str(replayed)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 dropped, 0 misclassified" in out

        code = main(["trace", "diff", str(recorded), str(replayed)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

        code = main(["trace", "inspect", str(recorded), "--head", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant-00-acl1" in out and "churn[0]" in out

    def test_diff_reports_differences(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        record_serving(a, num_tenants=1, families=("acl1",), num_rules=20,
                       num_packets=100, num_flows=16, churn_events=0,
                       seed=1)
        record_serving(b, num_tenants=1, families=("acl1",), num_rules=20,
                       num_packets=100, num_flows=16, churn_events=0,
                       seed=2)
        code = main(["trace", "diff", str(a), str(b)])
        assert code == 1
        assert "differ" in capsys.readouterr().out

    def test_record_reports_unwritable_output_cleanly(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        code = main(["trace", "record", "--tenants", "1",
                     "--families", "acl1", "--num-rules", "15",
                     "--num-packets", "50", "--num-flows", "8",
                     "--churn-events", "0",
                     "--output", str(blocker / "x.trace")])
        assert code == 2
        assert "could not be written" in capsys.readouterr().err

    def test_replay_rejects_garbage_file(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "bogus.trace"
        bogus.write_bytes(b"this is not a trace")
        code = main(["trace", "replay", str(bogus), "--verify"])
        assert code == 2
        assert "bad magic" in capsys.readouterr().err
