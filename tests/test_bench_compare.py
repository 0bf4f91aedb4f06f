"""Tests for the bench regression gate (`repro.obs.compare` + `repro bench`).

Covers the comparison semantics directly (exact counters, config drift,
timings that are reported but never judged) and the CLI round-trip the
acceptance criteria name: `repro serve-bench --json` followed by
`repro bench compare` must exit 0 on a clean self-compare and 1 once a
deterministic counter is perturbed.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import (
    BenchRecord,
    compare_records,
    read_bench,
    write_bench,
)


def _record(counters=None, timings=None, config=None, area="engine"):
    return BenchRecord(
        name="unit", area=area,
        config=dict(config if config is not None else {"seed": 0}),
        counters=dict(counters if counters is not None
                      else {"num_packets": 1000}),
        timings=dict(timings if timings is not None
                     else {"compile_seconds": 1.0}),
    )


def _statuses(report, kind=None):
    return {c.metric: c.status for c in report.checks
            if kind is None or c.kind == kind}


class TestCompareRecords:
    def test_identical_records_pass(self):
        report = compare_records(_record(), _record())
        assert report.ok
        assert _statuses(report) == {"num_packets": "ok",
                                     "compile_seconds": "info"}

    def test_counter_change_is_regression_either_direction(self):
        for moved in (999, 1001):
            report = compare_records(_record(counters={"num_packets": moved}),
                                     _record())
            assert not report.ok
            failure, = report.failures
            assert failure.kind == "counter"
            assert failure.metric == "num_packets"

    def test_missing_counter_fails_new_counter_informs(self):
        baseline = _record(counters={"a": 1, "b": 2})
        run = _record(counters={"b": 2, "c": 3})
        report = compare_records(run, baseline)
        statuses = _statuses(report, kind="counter")
        assert statuses == {"a": "missing", "b": "ok", "c": "new"}
        assert not report.ok  # the missing counter fails the gate

    def test_zero_baseline_timing_never_banded(self):
        baseline = _record(timings={"compile_seconds": 0.0})
        run = _record(timings={"compile_seconds": 5.0})
        report = compare_records(run, baseline)
        assert report.ok

    def test_timings_ten_times_worse_never_fail(self):
        baseline = _record(timings={"compile_seconds": 1.0,
                                    "compiled_pps": 1000.0,
                                    "latency_p99_ms": 2.0})
        run = _record(timings={"compile_seconds": 10.0,
                               "compiled_pps": 100.0,
                               "speedup": 3.0})
        report = compare_records(run, baseline)
        assert report.ok and not report.failures
        assert _statuses(report, kind="timing") == {
            "compile_seconds": "info", "compiled_pps": "info",
            "latency_p99_ms": "info", "speedup": "new"}
        by_metric = {c.metric: c for c in report.checks if c.kind == "timing"}
        assert by_metric["compile_seconds"].baseline_value == 1.0
        assert by_metric["compile_seconds"].run_value == 10.0
        assert by_metric["latency_p99_ms"].run_value is None
        # The same pair with one counter off by one still fails.
        run.counters["num_packets"] += 1
        report = compare_records(run, baseline)
        assert [c.metric for c in report.failures] == ["num_packets"]

    def test_config_drift_fails_unless_ignored(self):
        baseline = _record(config={"seed": 0, "binth": 8})
        run = _record(config={"seed": 1, "binth": 8})
        report = compare_records(run, baseline)
        assert not report.ok
        assert report.failures[0].kind == "config"
        assert compare_records(run, baseline, ignore_config=True).ok

    def test_area_mismatch_fails(self):
        report = compare_records(_record(area="serve"), _record(area="engine"))
        assert not report.ok
        assert report.failures[0].metric == "area"

    def test_rows_cover_every_check(self):
        report = compare_records(_record(), _record())
        rows = report.rows()
        assert len(rows) == len(report.checks)
        assert all(len(row) == 5 for row in rows)


class TestBenchCompareCli:
    def _write_pair(self, tmp_path):
        record = _record(counters={"num_packets": 1000, "mismatches": 0},
                         timings={"compiled_pps": 5000.0})
        baseline_path = write_bench(record, tmp_path / "BENCH_baseline.json")
        run_path = write_bench(record, tmp_path / "BENCH_run.json")
        return run_path, baseline_path

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        run_path, baseline_path = self._write_pair(tmp_path)
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gate passed" in out and "num_packets" in out

    def test_injected_counter_regression_exits_one(self, tmp_path, capsys):
        run_path, baseline_path = self._write_pair(tmp_path)
        data = json.loads(run_path.read_text())
        data["counters"]["num_packets"] += 7
        run_path.write_text(json.dumps(data))
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out
        assert "regression(s)" in captured.err

    def test_timings_ten_times_worse_exit_zero(self, tmp_path, capsys):
        run_path, baseline_path = self._write_pair(tmp_path)
        baseline = json.loads(baseline_path.read_text())
        baseline["timings"] = {"compiled_pps": 5000.0, "compile_seconds": 0.1,
                               "latency_p99_ms": 2.0}
        baseline_path.write_text(json.dumps(baseline))
        data = json.loads(run_path.read_text())
        data["timings"] = {"compiled_pps": 500.0, "compile_seconds": 1.0,
                           "speedup": 3.0}
        run_path.write_text(json.dumps(data))
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gate passed" in out
        for metric in ("compiled_pps", "compile_seconds", "latency_p99_ms",
                       "speedup"):
            assert metric in out
        # The same pair with one counter off by one still exits 1.
        data["counters"]["num_packets"] += 1
        run_path.write_text(json.dumps(data))
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 1
        assert "num_packets" in capsys.readouterr().out

    def test_unreadable_record_exits_two(self, tmp_path, capsys):
        run_path, baseline_path = self._write_pair(tmp_path)
        code = main(["bench", "compare", str(tmp_path / "nope.json"),
                     str(baseline_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_schema_exits_two(self, tmp_path, capsys):
        run_path, baseline_path = self._write_pair(tmp_path)
        run_path.write_text('{"schema_version": 99}')
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 2
        assert "schema version" in capsys.readouterr().err

    def test_bench_show_renders_record(self, tmp_path, capsys):
        run_path, _ = self._write_pair(tmp_path)
        code = main(["bench", "show", str(run_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "num_packets" in out and "compiled_pps" in out


class TestBenchCompareDirectory:
    """Directory mode: one invocation gates a whole scorecard suite."""

    def _write_dirs(self, tmp_path, names=("BENCH_a.json", "BENCH_b.json")):
        run_dir = tmp_path / "run"
        baseline_dir = tmp_path / "baselines"
        for name in names:
            record = _record(counters={"num_packets": 1000},
                             timings={"compiled_pps": 5000.0})
            write_bench(record, baseline_dir / name)
            write_bench(record, run_dir / name)
        return run_dir, baseline_dir

    def test_clean_directory_compare_exits_zero(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        code = main(["bench", "compare", str(run_dir), str(baseline_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "directory gate passed" in out and "2 record pair" in out

    def test_one_regression_fails_the_whole_gate(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        path = run_dir / "BENCH_b.json"
        data = json.loads(path.read_text())
        data["counters"]["num_packets"] += 1
        path.write_text(json.dumps(data))
        code = main(["bench", "compare", str(run_dir), str(baseline_dir)])
        assert code == 1
        assert "num_packets" in capsys.readouterr().out

    def test_missing_run_record_fails(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        (run_dir / "BENCH_b.json").unlink()
        code = main(["bench", "compare", str(run_dir), str(baseline_dir)])
        assert code == 1
        assert "BENCH_b.json" in capsys.readouterr().err

    def test_run_only_record_is_informational(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        write_bench(_record(), run_dir / "BENCH_extra.json")
        code = main(["bench", "compare", str(run_dir), str(baseline_dir)])
        assert code == 0
        assert "BENCH_extra.json" in capsys.readouterr().out

    def test_empty_baseline_dir_exits_two(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        for path in baseline_dir.glob("BENCH_*.json"):
            path.unlink()
        code = main(["bench", "compare", str(run_dir), str(baseline_dir)])
        assert code == 2
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_mixed_file_and_directory_exits_two(self, tmp_path, capsys):
        run_dir, baseline_dir = self._write_dirs(tmp_path)
        code = main(["bench", "compare", str(run_dir / "BENCH_a.json"),
                     str(baseline_dir)])
        assert code == 2
        assert "both" in capsys.readouterr().err


class TestServeBenchRoundTrip:
    """The acceptance path: serve-bench --json -> bench compare."""

    _ARGS = ["serve-bench", "--tenants", "2", "--num-rules", "40",
             "--num-packets", "800", "--num-flows", "80",
             "--churn-events", "1", "--verify",
             "--seed", "0"]

    def test_round_trip_and_injected_regression(self, tmp_path, capsys):
        baseline_path = tmp_path / "BENCH_serve.json"
        run_path = tmp_path / "BENCH_serve_run.json"
        assert main(self._ARGS + ["--json", str(baseline_path)]) == 0
        assert main(self._ARGS + ["--json", str(run_path)]) == 0
        capsys.readouterr()

        baseline = read_bench(baseline_path)
        assert baseline.area == "serve"
        assert baseline.counters["num_requests"] == 800
        assert baseline.counters["exact_mismatches"] == 0
        assert "throughput_pps" in baseline.timings

        # Clean self-compare: deterministic counters match exactly across
        # two independent runs (timings are machine noise, never judged).
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 0
        capsys.readouterr()

        # Perturb one deterministic counter -> gate trips.
        data = json.loads(run_path.read_text())
        data["counters"]["cache_hits"] += 1
        run_path.write_text(json.dumps(data))
        code = main(["bench", "compare", str(run_path), str(baseline_path)])
        assert code == 1
        assert "cache_hits" in capsys.readouterr().out

    def test_engine_bench_json_compares_clean(self, tmp_path, capsys):
        args = ["engine-bench", "--seed-family", "acl1", "--num-rules", "60",
                "--num-packets", "2000", "--seed", "1"]
        first = tmp_path / "BENCH_engine.json"
        second = tmp_path / "BENCH_engine_2.json"
        assert main(args + ["--json", str(first)]) == 0
        assert main(args + ["--json", str(second)]) == 0
        capsys.readouterr()
        record = read_bench(first)
        assert record.area == "engine"
        assert record.counters["mismatches"] == 0
        assert main(["bench", "compare", str(second), str(first)]) == 0
