"""Improvement statistics used throughout the evaluation section.

The paper reports comparisons as relative improvements ``1 - a/b`` (Figure
10's y-axis), medians/means over the 36-classifier suite, and "better than
the minimum of all baselines in X % of cases".  These helpers compute those
aggregates from per-classifier result dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.serialize import stable_dict


def improvement(ours: float, baseline: float) -> float:
    """Relative improvement ``1 - ours/baseline`` (positive = we are better)."""
    if baseline == 0:
        return 0.0
    return 1.0 - (ours / baseline)


@dataclass(frozen=True)
class ImprovementSummary:
    """Aggregate improvement of one algorithm over another across a suite."""

    median: float
    mean: float
    best: float
    worst: float
    win_fraction: float
    per_classifier: Dict[str, float]

    def as_dict(self) -> Dict[str, float]:
        return stable_dict({
            "median": self.median,
            "mean": self.mean,
            "best": self.best,
            "worst": self.worst,
            "win_fraction": self.win_fraction,
        })


def summarize_improvements(ours: Mapping[str, float],
                           baseline: Mapping[str, float]) -> ImprovementSummary:
    """Per-classifier improvements of ``ours`` over ``baseline`` and aggregates.

    Both mappings are keyed by classifier label; only shared keys are used.
    """
    shared = sorted(set(ours) & set(baseline))
    if not shared:
        raise ValueError("no shared classifiers between the two result sets")
    per = {label: improvement(ours[label], baseline[label]) for label in shared}
    values = np.array(list(per.values()))
    return ImprovementSummary(
        median=float(np.median(values)),
        mean=float(np.mean(values)),
        best=float(np.max(values)),
        worst=float(np.min(values)),
        win_fraction=float(np.mean(values > 0)),
        per_classifier=per,
    )


def best_baseline(per_algorithm: Mapping[str, Mapping[str, float]],
                  exclude: Sequence[str] = ()) -> Dict[str, float]:
    """Per-classifier minimum over all (non-excluded) algorithms.

    This is the "minimum of all baselines" comparison of Section 6.1.
    """
    algorithms = [name for name in per_algorithm if name not in exclude]
    if not algorithms:
        raise ValueError("no algorithms left after exclusion")
    labels = set(per_algorithm[algorithms[0]])
    for name in algorithms[1:]:
        labels &= set(per_algorithm[name])
    return {
        label: min(per_algorithm[name][label] for name in algorithms)
        for label in sorted(labels)
    }


def median_by_algorithm(per_algorithm: Mapping[str, Mapping[str, float]]
                        ) -> Dict[str, float]:
    """Median metric value per algorithm across classifiers."""
    return {
        name: float(np.median(list(values.values())))
        for name, values in per_algorithm.items()
    }


def sorted_improvements(per_classifier: Mapping[str, float]) -> List[float]:
    """Improvements sorted ascending — the x-order of Figure 10's ranking plots."""
    return sorted(per_classifier.values())
