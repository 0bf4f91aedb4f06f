"""Evaluation metrics: improvements over the baselines on the paper's
structural time and space measures."""

from repro.metrics.summary import (
    ImprovementSummary,
    best_baseline,
    improvement,
    median_by_algorithm,
    sorted_improvements,
    summarize_improvements,
)

__all__ = [
    "ImprovementSummary",
    "best_baseline",
    "improvement",
    "median_by_algorithm",
    "sorted_improvements",
    "summarize_improvements",
]
