"""Tests for the metrics package and the experiment harness utilities."""

import numpy as np
import pytest

from repro.metrics import (
    best_baseline,
    improvement,
    median_by_algorithm,
    sorted_improvements,
    speedup,
    summarize_improvements,
)
from repro.harness import (
    PAPER,
    SMALL,
    TINY,
    comparison_table,
    format_table,
    get_scale,
    paper_vs_measured_table,
    series_table,
    summary_table,
    table1_rows,
)
from repro.harness.experiments import TABLE1_PAPER_DEFAULTS, TABLE1_SWEEPS
from repro.neurocuts import NeuroCutsConfig


class TestImprovementMetrics:
    def test_improvement_sign_convention(self):
        assert improvement(5, 10) == pytest.approx(0.5)      # we are 2x better
        assert improvement(10, 5) == pytest.approx(-1.0)     # we are 2x worse
        assert improvement(3, 0) == 0.0

    def test_speedup(self):
        assert speedup(10, 5) == pytest.approx(2.0)
        assert speedup(10, 0) == float("inf")

    def test_summarize_improvements(self):
        ours = {"a": 5.0, "b": 20.0, "c": 4.0}
        base = {"a": 10.0, "b": 10.0, "c": 8.0}
        summary = summarize_improvements(ours, base)
        assert summary.median == pytest.approx(0.5)
        assert summary.best == pytest.approx(0.5)
        assert summary.worst == pytest.approx(-1.0)
        assert summary.win_fraction == pytest.approx(2 / 3)
        assert set(summary.per_classifier) == {"a", "b", "c"}

    def test_summarize_requires_shared_keys(self):
        with pytest.raises(ValueError):
            summarize_improvements({"a": 1.0}, {"b": 1.0})

    def test_best_baseline_takes_minimum(self):
        per_alg = {
            "X": {"a": 5.0, "b": 3.0},
            "Y": {"a": 4.0, "b": 9.0},
            "ours": {"a": 1.0, "b": 1.0},
        }
        best = best_baseline(per_alg, exclude=("ours",))
        assert best == {"a": 4.0, "b": 3.0}

    def test_median_by_algorithm(self):
        per_alg = {"X": {"a": 1.0, "b": 3.0, "c": 5.0}}
        assert median_by_algorithm(per_alg)["X"] == 3.0

    def test_sorted_improvements(self):
        assert sorted_improvements({"a": 0.3, "b": -0.1, "c": 0.2}) == [-0.1, 0.2, 0.3]


class TestScales:
    def test_presets_exist(self):
        assert get_scale("tiny") is TINY
        assert get_scale("paper") is PAPER
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_tiny_specs_are_small(self):
        specs = TINY.specs()
        assert 0 < len(specs) <= 12
        assert all(spec.num_rules <= 200 for spec in specs)

    def test_paper_scale_matches_paper_budgets(self):
        config = PAPER.neurocuts_config()
        assert config.max_timesteps_total == 10_000_000
        assert tuple(config.hidden_sizes) == (512, 512)
        assert config.learning_rate == 5e-5

    def test_small_scale_config_valid(self):
        SMALL.neurocuts_config(time_space_coeff=0.5).validate()


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 2.5]])
        assert "name" in text and "bb" in text
        assert len(text.splitlines()) == 4

    def test_comparison_table(self):
        values = {"X": {"a": 1.0, "b": 2.0}, "Y": {"a": 3.0, "b": 4.0}}
        text = comparison_table(values, metric="depth")
        assert "depth" in text and "X" in text and "a" in text

    def test_summary_table(self):
        text = summary_table({"ours vs best": {"median": 0.2, "mean": 0.1,
                                               "best": 0.5, "worst": -0.1,
                                               "win_fraction": 0.7}})
        assert "ours vs best" in text

    def test_series_table(self):
        text = series_table({"c": [0.0, 1.0], "time": [10.0, 5.0]})
        assert "c" in text and "time" in text

    def test_paper_vs_measured_table(self):
        text = paper_vs_measured_table([("median win", "18%", "12%")])
        assert "median win" in text


class TestTable1:
    def test_table1_defaults_agree(self):
        for name, paper_value, ours in table1_rows():
            assert ours == paper_value, f"{name}: {ours} != {paper_value}"

    def test_every_swept_value_is_accepted_by_config(self):
        for name, values in TABLE1_SWEEPS.items():
            for value in values:
                config = NeuroCutsConfig(**{name: value})
                assert getattr(config, name) == value

    def test_paper_defaults_cover_table(self):
        assert "learning_rate" in TABLE1_PAPER_DEFAULTS
        assert "hidden_sizes" in TABLE1_PAPER_DEFAULTS
