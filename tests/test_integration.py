"""End-to-end integration tests across the whole stack.

These exercise the same paths the examples and benchmarks use: generate a
workload, train NeuroCuts, compare against baselines, serialise the result,
and apply online updates — each at a deliberately tiny scale.
"""

import pytest

import reference_walk
from repro.baselines import HiCutsBuilder, default_baselines
from repro.classbench import ClassifierSpec, generate_classifier, generate_trace
from repro.metrics import summarize_improvements
from repro.neurocuts import (
    IncrementalUpdater,
    NeuroCutsConfig,
    NeuroCutsTrainer,
    profile_tree,
)
from repro.rules import Rule, io as rules_io
from repro.tree import (
    TreeClassifier,
    load_tree,
    save_tree,
    validate_classifier,
)
from repro.harness import TINY, run_figure11, table1_rows


@pytest.fixture(scope="module")
def workload():
    return generate_classifier("ipc1", 50, seed=11)


class TestEndToEnd:
    def test_full_pipeline_train_validate_serialize(self, tmp_path, workload):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16), max_timesteps_total=800,
            timesteps_per_batch=400, max_timesteps_per_rollout=200,
            leaf_threshold=8, seed=2,
        )
        trainer = NeuroCutsTrainer(workload, config)
        result = trainer.train()
        classifier = result.best_classifier()

        # 1. The learnt tree is a correct classifier.
        report = validate_classifier(classifier, num_random_packets=120)
        assert report.is_correct

        # 2. It can be saved and reloaded without changing behaviour.
        path = tmp_path / "neurocuts_tree.json"
        save_tree(result.best_tree, path)
        restored = load_tree(path, workload)
        packets = workload.sample_packets(40, seed=3)
        before, after = (
            TreeClassifier(workload, [tree]).compile().classify_batch(packets)
            for tree in (result.best_tree, restored))
        assert [m.priority if m else None for m in before] == \
            [m.priority if m else None for m in after]

        # 3. It supports incremental updates afterwards.
        updater = IncrementalUpdater(restored)
        updater.add_rule(Rule.from_fields(dst_port=(8443, 8444), priority=10 ** 6))
        updated = TreeClassifier(restored.ruleset, [restored])
        assert validate_classifier(updated, num_random_packets=80).is_correct

    def test_classbench_file_roundtrip_feeds_builders(self, tmp_path, workload):
        path = tmp_path / "rules.cb"
        rules_io.dump(workload, path)
        loaded = rules_io.load(path)
        result = HiCutsBuilder(binth=8).build_with_stats(loaded)
        assert validate_classifier(result.classifier,
                                   num_random_packets=80).is_correct

    def test_baseline_comparison_and_improvement_summary(self, workload):
        per_algorithm = {}
        for name, builder in default_baselines(binth=8).items():
            result = builder.build_with_stats(workload)
            per_algorithm[name] = {workload.name: result.stats.classification_time}
        summary = summarize_improvements(
            per_algorithm["HiCuts"], per_algorithm["CutSplit"]
        )
        assert -10.0 < summary.median < 1.0

    def test_trace_driven_measurement(self, workload):
        classifier = HiCutsBuilder(binth=8).build(workload)
        trace = generate_trace(workload, num_packets=200, seed=5)
        # Nodes the recursive walk visits, summed over the trees, can never
        # exceed the analytic worst case.
        observed = max(
            sum(reference_walk.tree_walk(tree, packet)[1]
                for tree in classifier.trees)
            for packet in trace)
        assert 1 <= observed <= classifier.stats().classification_time

    def test_figure11_runner_produces_series(self):
        """The Figure 11 runner yields one point per coefficient (tiny budget)."""
        import dataclasses

        scale = dataclasses.replace(TINY, neurocuts_timesteps=1200,
                                    neurocuts_batch=400)
        specs = [ClassifierSpec(seed_name="fw5", scale="1k", num_rules=50, seed=0)]
        result = run_figure11(scale, coefficients=(0.0, 1.0), specs=specs)
        series = result.series()
        assert series["c"] == [0.0, 1.0]
        assert all(v > 0 for v in series["median_classification_time"])
        assert all(v > 0 for v in series["median_bytes_per_rule"])

    def test_table1_matches_paper(self):
        mismatches = [name for name, paper, ours in table1_rows() if paper != ours]
        assert mismatches == []

    def test_figure5_style_profile_of_trained_tree(self, workload):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16), max_timesteps_total=600,
            timesteps_per_batch=300, max_timesteps_per_rollout=150,
            leaf_threshold=8, seed=4,
        )
        trainer = NeuroCutsTrainer(workload, config)
        result = trainer.train()
        profile = profile_tree(result.best_tree)
        assert profile.depth == result.best_tree.depth()
        assert profile.num_nodes == result.best_tree.num_nodes()
