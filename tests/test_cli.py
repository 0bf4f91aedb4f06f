"""Tests for the command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.baselines import HiCutsBuilder
from repro.cli import build_parser, main
from repro.engine import CompileError
from repro.rules import Dimension, io as rules_io
from repro.tree import (
    CutAction,
    EffiCutsPartitionAction,
    TreeClassifier,
    build_with_policy,
    save_tree,
    validate_classifier,
)


def _declares(parser, command, flag):
    """Whether the (possibly nested) subcommand ``command`` takes ``flag``."""
    for word in command:
        parser = next(action.choices[word] for action in parser._actions
                      if isinstance(action.choices, dict)
                      and word in action.choices)
    return any(flag in action.option_strings for action in parser._actions)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--seed-family", "fw1", "--num-rules", "50",
             "--output", "out.cb"]
        )
        assert args.command == "generate"
        assert args.seed_family == "fw1"
        assert args.num_rules == 50

    def test_every_subcommand_keeps_its_flags(self):
        """``tests/data/cli_flags.json`` was generated before the serving
        flags were declared once and shared: no option string, dest,
        default, choice, nargs, metavar or type may differ from it."""
        script_path = Path(__file__).resolve().parent.parent \
            / "scripts" / "make_cli_flag_snapshot.py"
        spec = importlib.util.spec_from_file_location(
            "make_cli_flag_snapshot", script_path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        expected = json.loads(script.SNAPSHOT.read_text())
        actual = script.snapshot_parser(build_parser())
        assert sorted(actual) == sorted(expected)
        for command in expected:
            assert actual[command] == expected[command], command


class TestCommands:
    def test_generate_writes_rule_file(self, tmp_path):
        output = tmp_path / "rules.cb"
        code = main(["generate", "--seed-family", "acl1", "--num-rules", "40",
                     "--seed", "3", "--output", str(output)])
        assert code == 0
        loaded = rules_io.load(output)
        assert len(loaded) == 40

    def test_compare_prints_table(self, tmp_path, capsys, small_acl_ruleset):
        rules_path = tmp_path / "rules.cb"
        rules_io.dump(small_acl_ruleset, rules_path)
        code = main(["compare", str(rules_path), "--binth", "8"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("HiCuts", "HyperCuts", "EffiCuts", "CutSplit"):
            assert name in out

    def test_train_then_classify_roundtrip(self, tmp_path, capsys,
                                           small_acl_ruleset):
        rules_path = tmp_path / "rules.cb"
        tree_path = tmp_path / "tree.json"
        rules_io.dump(small_acl_ruleset, rules_path)
        code = main(["train", str(rules_path), "--output", str(tree_path),
                     "--timesteps", "800", "--leaf-threshold", "8"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["classification_time"] >= 1
        assert tree_path.exists()

        code = main(["classify", str(rules_path), str(tree_path),
                     "--num-packets", "100"])
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out


    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--timesteps", "0"], "max_timesteps_total must be >= 1"),
        ("train", ["--coefficient", "2"],
         "time_space_coeff must be within [0, 1]"),
        ("train", ["--leaf-threshold", "0"], "leaf_threshold must be >= 1"),
        ("compare", ["--timesteps", "0"], "max_timesteps_total must be >= 1"),
        ("compare", ["--binth", "0"], "--binth must be >= 1"),
    ])
    def test_out_of_range_training_flags_exit_2(self, tmp_path, capsys,
                                                small_acl_ruleset, command,
                                                flags, message):
        """Exit 2 with an ``error:`` line, not 1 (the code ``train`` uses
        for a learnt tree that disagrees with linear search)."""
        rules_path = tmp_path / "rules.cb"
        rules_io.dump(small_acl_ruleset, rules_path)
        extra = {"train": ["--output", str(tmp_path / "tree.json")],
                 "compare": ["--with-neurocuts"]}[command]
        assert main([command, str(rules_path), *extra, *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestClassify:
    @pytest.fixture
    def rules_and_tree(self, tmp_path, small_acl_ruleset):
        rules_path = tmp_path / "rules.cb"
        tree_path = tmp_path / "tree.json"
        rules_io.dump(small_acl_ruleset, rules_path)
        classifier = HiCutsBuilder(binth=8).build(small_acl_ruleset)
        save_tree(classifier.trees[0], tree_path)
        return rules_path, tree_path

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_classify_rejects_fewer_than_one_packet(self, rules_and_tree,
                                                    capsys, count):
        """Zero packets would check nothing and report success; a negative
        count used to die inside NumPy with a traceback."""
        rules_path, tree_path = rules_and_tree
        assert main(["classify", str(rules_path), str(tree_path),
                     "--num-packets", count]) == 2
        captured = capsys.readouterr()
        assert "error: --num-packets must be >= 1" in captured.err
        assert "mismatches" not in captured.out

    def test_a_tree_the_engine_cannot_compile_fails_loudly(
            self, tmp_path, capsys, small_fw_ruleset, monkeypatch):
        """An EffiCuts-partitioned tree that expands into more search trees
        than the engine allows is an error in validation and in ``repro
        classify`` alike: no fallback, no pass."""
        import repro.engine.compile as engine_compile

        tree = build_with_policy(
            small_fw_ruleset,
            lambda node: EffiCutsPartitionAction() if node.depth == 0
            else CutAction(Dimension.SRC_IP, 4),
            leaf_threshold=8, max_depth=4, max_actions=200)
        assert len(tree.root.children) > 1
        rules_path = tmp_path / "rules.cb"
        tree_path = tmp_path / "tree.json"
        rules_io.dump(small_fw_ruleset, rules_path)
        save_tree(tree, tree_path)
        monkeypatch.setattr(engine_compile, "MAX_SEARCH_TREES", 1)

        with pytest.raises(CompileError, match="more than 1 search trees"):
            validate_classifier(TreeClassifier(small_fw_ruleset, [tree]))
        assert main(["classify", str(rules_path), str(tree_path),
                     "--num-packets", "50"]) == 2
        captured = capsys.readouterr()
        assert "error: the engine cannot compile" in captured.err
        assert "mismatches" not in captured.out


class TestEngineBench:
    def test_engine_bench_reports_speedup_and_hit_rate(self, capsys):
        code = main(["engine-bench", "--num-rules", "120",
                     "--num-packets", "3000", "--flow-cache", "512",
                     "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "speedup" in out
        assert "flow cache:" in out
        assert "hit rate" in out
        assert "evictions" in out

    def test_engine_bench_seed_reproduces_the_run(self, capsys):
        argv = ["engine-bench", "--num-rules", "60", "--num-packets", "500",
                "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Same seed, same generated ruleset and sampled packets: the
        # workload summary (everything before the compile wall time)
        # matches exactly.
        summary = lambda out: out.splitlines()[0].split(", compile")[0]
        assert summary(first) == summary(second)
        assert "60 rules, 500 packets" in summary(first)

    def test_engine_bench_rejects_unknown_algorithm(self, capsys):
        code = main(["engine-bench", "--algorithm", "NoSuchCuts",
                     "--num-rules", "50", "--num-packets", "100"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_engine_bench_rejects_a_zero_leaf_size(self, capsys, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        assert main(["engine-bench", "--num-rules", "50", "--num-packets",
                     "100", "--binth", "0", "--json", str(output)]) == 2
        assert "error: --binth must be >= 1" in capsys.readouterr().err
        assert not output.exists()


class TestServeBench:
    def test_serve_bench_arguments(self):
        args = build_parser().parse_args(
            ["serve-bench", "--tenants", "2", "--num-packets", "500",
             "--churn-events", "1", "--verify"]
        )
        assert args.command == "serve-bench"
        assert args.tenants == 2 and args.verify

    def test_serve_bench_reports_and_verifies(self, capsys):
        code = main(["serve-bench", "--tenants", "2", "--num-rules", "60",
                     "--num-packets", "1200", "--num-flows", "120",
                     "--churn-events", "1", "--verify", "--sync-swaps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency p99" in out
        assert "cache hit rate" in out
        assert "engine swaps" in out
        assert "0 mismatches" in out

    def test_serve_bench_rejects_bad_family(self, capsys):
        code = main(["serve-bench", "--families", "nope",
                     "--num-packets", "100"])
        assert code == 2
        assert "unknown seed family" in capsys.readouterr().err

    def test_serve_bench_rejects_bad_counts(self, capsys):
        assert main(["serve-bench", "--tenants", "0"]) == 2
        capsys.readouterr()
        assert main(["serve-bench", "--num-packets", "0"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--binth", "0"], "--binth must be >= 1"),
        (["--retrain-threshold", "-1"], "--retrain-threshold must be >= 0"),
        (["--batch-size", "0"], "max_batch must be >= 1"),
        (["--flow-cache", "-5"], "--flow-cache must be >= 0"),
        (["--churn-events", "-1"], "--churn-events must be >= 0"),
    ])
    def test_out_of_range_serving_flags_exit_2(self, flags, message, capsys,
                                               tmp_path):
        """Every serving subcommand that declares a flag shares its check
        (and, for the stack flags, the one ``ServingConfig`` that
        validates them): an out-of-range value exits 2, writing nothing."""
        golden = Path(__file__).parent / "data" / "acl1_churn.trace"
        output = tmp_path / "out.trace"
        parser = build_parser()
        tried = 0
        for command, arguments in (
                (["serve-bench"], ["--num-packets", "100"]),
                (["trace", "record"], ["--num-packets", "100",
                                       "--output", str(output)]),
                (["trace", "replay"], [str(golden)])):
            if not _declares(parser, command, flags[0]):
                continue
            tried += 1
            assert main(command + arguments + flags) == 2
            assert message in capsys.readouterr().err
            assert not output.exists()
        assert tried >= 2

    def test_json_config_records_every_counter_changing_flag(self, tmp_path,
                                                             capsys):
        """Two scorecards that differ only in ``--zipf`` read as config
        drift on ``zipf``, not as unexplained counter regressions."""
        from repro.obs.bench import read_bench
        from repro.obs.compare import compare_records

        paths = []
        for zipf in ("1.1", "0.5"):
            paths.append(tmp_path / f"BENCH_zipf{zipf}.json")
            assert main(["serve-bench", "--tenants", "1", "--num-rules", "30",
                         "--num-packets", "400", "--churn-events", "0",
                         "--zipf", zipf, "--json", str(paths[-1])]) == 0
        assert main(["bench", "compare", str(paths[1]), str(paths[0])]) == 1
        capsys.readouterr()
        report = compare_records(read_bench(paths[1]), read_bench(paths[0]))
        drift = [check for check in report.failures if check.kind == "config"]
        assert [check.metric for check in drift] == ["zipf"]
        for key in ("burst", "max_delay_ms", "retrain_timesteps"):
            assert key in read_bench(paths[0]).config

    @pytest.mark.parametrize("flags, message", [
        (["--flash-crowd", "-1"], "--flash-crowd must be 0 (off) or > 1"),
        (["--tenant-zipf", "-1"], "--tenant-zipf must be >= 0"),
    ])
    def test_out_of_range_workload_flags_exit_2(self, flags, message,
                                                capsys, tmp_path):
        """A negative crowd factor or tenant skew is refused, not served
        as the nominal (or an inverted) split: exit 2, no scorecard."""
        output = tmp_path / "BENCH_serve.json"
        assert main(["serve-bench", "--num-packets", "100",
                     "--json", str(output)] + flags) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not output.exists()
