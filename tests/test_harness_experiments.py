"""Light tests of the figure runners (micro budgets).

The benchmarks run the figure experiments at meaningful budgets; these tests
verify the runners wire the pieces together correctly, so they use a single
tiny classifier and a few hundred training steps.  The suite runner's exact
outputs are pinned: every build is deterministic for a fixed seed.
"""

import dataclasses
import signal

import pytest

from repro.classbench import ClassifierSpec
from repro.harness import TINY, run_figure5, run_figure10, run_suite_comparison
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
        assert per_alg == {"HiCuts": 3.0, "HyperCuts": 3.0, "EffiCuts": 3.0,
                           "CutSplit": 6.0, "NeuroCuts": 5.0}
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
        assert result.values == {
            "HiCuts": {"acl1_1k": 67.52}, "HyperCuts": {"acl1_1k": 49.92},
            "EffiCuts": {"acl1_1k": 56.0}, "CutSplit": {"acl1_1k": 22.56},
            "NeuroCuts": {"acl1_1k": 58.88},
        }
        # The compiled engine's bytes per rule sit beside the model's.
        assert result.compiled == {
            "HiCuts": {"acl1_1k": 85.72}, "HyperCuts": {"acl1_1k": 83.64},
            "EffiCuts": {"acl1_1k": 88.76}, "CutSplit": {"acl1_1k": 55.48},
            "NeuroCuts": {"acl1_1k": 79.48},
        }
        ratios = result.engine_to_model()
        assert set(ratios) == set(result.values)
        assert all(0.5 < ratio < 10 for per_label in ratios.values()
                   for ratio in per_label.values())

    def test_duplicate_labels_are_refused(self, micro_scale, micro_specs):
        twin = dataclasses.replace(micro_specs[0], seed=1)
        assert twin.label == micro_specs[0].label
        with pytest.raises(ValueError, match="acl1_1k"):
            run_suite_comparison(micro_scale, specs=[micro_specs[0], twin])


class TestFigure10Runner:
    def test_improvements_cover_every_spec(self, micro_scale, micro_specs):
        result = run_figure10(micro_scale, specs=micro_specs)
        assert set(result.space_improvement.per_classifier) == {"acl1_1k"}
        assert set(result.time_improvement.per_classifier) == {"acl1_1k"}
        assert "acl1_1k" in result.neurocuts["bytes_per_rule"]
        assert "acl1_1k" in result.efficuts["bytes_per_rule"]

    def test_duplicate_labels_are_refused(self, micro_scale, micro_specs):
        twin = dataclasses.replace(micro_specs[0], num_rules=60)
        with pytest.raises(ValueError, match="acl1_1k"):
            run_figure10(micro_scale, specs=[micro_specs[0], twin])


def _fail_after(seconds):
    """Raise in the main thread once ``seconds`` pass (no pytest-timeout)."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    return previous


class TestFigure5Runner:
    def test_ruleset_that_fits_one_leaf_returns(self):
        # Five rules fit one leaf (leaf_threshold 8): training takes no steps.
        scale = dataclasses.replace(TINY, scale_sizes={"1k": 5})
        previous = _fail_after(30)
        try:
            result = run_figure5(scale)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result.best_depth_over_time == []
        assert result.snapshot_iterations == [0]
        assert result.final_best_depth == 1


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
        assert len(result.report.rows()) >= 8
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
