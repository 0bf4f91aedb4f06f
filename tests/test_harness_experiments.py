"""Light tests of the figure runners (micro budgets, structure only).

The benchmarks run the figure experiments at meaningful budgets; these tests
only verify the runners wire the pieces together correctly, so they use a
single tiny classifier and a few hundred training steps.
"""

import dataclasses

import pytest

from repro.classbench import ClassifierSpec
from repro.harness import TINY, run_figure10, run_suite_comparison
from repro.harness.experiments import BASELINE_NAMES


@pytest.fixture(scope="module")
def micro_scale():
    """A scale so small the runners finish in a few seconds."""
    return dataclasses.replace(
        TINY,
        families=("acl1",),
        neurocuts_timesteps=600,
        neurocuts_batch=300,
        neurocuts_rollout_limit=150,
        neurocuts_hidden=(16, 16),
    )


@pytest.fixture(scope="module")
def micro_specs(micro_scale):
    return [ClassifierSpec(seed_name="acl1", scale="1k", num_rules=50, seed=0)]


class TestSuiteComparison:
    def test_comparison_includes_all_algorithms(self, micro_scale, micro_specs):
        result = run_suite_comparison(
            micro_scale, metric="classification_time", specs=micro_specs,
            neurocuts_config=micro_scale.neurocuts_config(),
        )
        assert set(result.values) == set(BASELINE_NAMES) | {"NeuroCuts"}
        assert set(result.medians) == set(result.values)
        rows = result.rows()
        assert len(rows) == 1
        label, per_alg = rows[0]
        assert label == "acl1_1k"
        assert all(value >= 1 for value in per_alg.values())
        summary = result.neurocuts_vs_best_baseline
        assert -20.0 < summary.median < 1.0
        # Only the footprint figure compiles what it builds.
        assert result.compiled == {} and result.engine_to_model() == {}

    def test_bytes_metric_variant(self, micro_scale, micro_specs):
        result = run_suite_comparison(
            micro_scale, metric="bytes_per_rule", specs=micro_specs,
            neurocuts_config=micro_scale.neurocuts_config(time_space_coeff=0.0,
                                                          reward_scaling="log"),
        )
        assert result.metric == "bytes_per_rule"
        assert all(v > 0 for values in result.values.values()
                   for v in values.values())
        # The compiled engine's bytes per rule sit beside the model's.
        assert {name: set(per_label)
                for name, per_label in result.compiled.items()} == \
            {name: set(per_label) for name, per_label in result.values.items()}
        ratios = result.engine_to_model()
        assert set(ratios) == set(result.values)
        assert all(0.5 < ratio < 10 for per_label in ratios.values()
                   for ratio in per_label.values())


class TestFigure10Runner:
    def test_improvements_cover_every_spec(self, micro_scale, micro_specs):
        result = run_figure10(micro_scale, specs=micro_specs)
        assert set(result.space_improvement.per_classifier) == {"acl1_1k"}
        assert set(result.time_improvement.per_classifier) == {"acl1_1k"}
        assert "acl1_1k" in result.neurocuts["bytes_per_rule"]
        assert "acl1_1k" in result.efficuts["bytes_per_rule"]


class TestServing:
    def test_run_serving_reports_and_verifies(self):
        from repro.harness import run_serving
        from repro.serve import ServingConfig

        result = run_serving(ServingConfig(background_swaps=False,
                                           record_batches=True),
                             num_tenants=2, num_rules=50, num_packets=1000,
                             num_flows=100, churn_events=1, seed=4)
        report = result.report
        assert report.num_requests == len(result.workload.requests)
        assert report.swaps == 1 and report.num_updates == 1
        assert report.pps > 0
        assert len(result.rows()) >= 8
        assert len(result.tenant_rows()) == 2
        exactness = result.verify_exactness()
        assert exactness.is_exact
        assert exactness.num_checked == report.num_requests
        assert exactness.num_post_swap > 0

    def test_verify_exactness_requires_recording(self):
        from repro.harness import run_serving

        result = run_serving(num_tenants=1, num_rules=40, num_packets=200,
                             num_flows=40, churn_events=0, seed=1)
        with pytest.raises(ValueError):
            result.verify_exactness()


class TestThroughput:
    def test_run_throughput_reports_every_algorithm(self, micro_scale,
                                                    micro_specs):
        from repro.harness import run_throughput

        result = run_throughput(micro_scale, specs=micro_specs,
                                num_packets=2000,
                                algorithms=("HiCuts", "EffiCuts"))
        assert {row.algorithm for row in result.rows} == {"HiCuts", "EffiCuts"}
        for row in result.rows:
            assert row.interpreter_pps > 0
            assert row.compiled_pps > 0
            assert row.compiled_memory_bytes > 0
            assert row.num_subtrees >= 1
        assert result.median_speedup() > 0
        assert len(result.table_rows()) == len(result.rows)
