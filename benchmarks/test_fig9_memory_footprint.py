"""Figure 9: memory footprint (bytes per rule) across the ClassBench suite.

Paper result: space-optimised NeuroCuts (partitioning enabled, c = 0) beats
HiCuts and HyperCuts decisively, improves on EffiCuts by 40 % at the median,
and usually sits slightly above CutSplit (26 % higher median) with a 3x
best-case win over all baselines.

Beside the memory model's bytes per rule the table prints what each tree's
compiled engine really holds (``CompiledClassifier.memory_bytes()`` over the
same rule count): leaves hold ``int32`` rule pointers like the model's, so
the engine tracks the model within a small constant.
"""

from __future__ import annotations

import statistics

from repro.harness import comparison_table, run_figure9, summary_table
from repro.metrics import median_by_algorithm, summarize_improvements

#: Bound on the median compiled-engine / memory-model ratio over every
#: (algorithm, classifier) cell: measured 1.35 at the default (tiny) scale,
#: plus a margin.  The trees that replicate rules sit below 1x (HiCuts 0.68,
#: HyperCuts 0.77: a node row is 22 bytes); the floor for the others is the
#: 44-byte row every distinct rule gets, which the model does not charge.
MAX_MEDIAN_ENGINE_TO_MODEL = 1.5


def test_figure9_memory_footprint(scale, run_once):
    result = run_once(run_figure9, scale)

    print("\n=== Figure 9: memory footprint (bytes per rule) ===")
    print(comparison_table(result.values, result.metric))
    print()
    vs_hicuts = summarize_improvements(result.values["NeuroCuts"],
                                       result.values["HiCuts"])
    vs_efficuts = summarize_improvements(result.values["NeuroCuts"],
                                         result.values["EffiCuts"])
    print(summary_table({
        "NeuroCuts vs min(all baselines)":
            result.neurocuts_vs_best_baseline.as_dict(),
        "NeuroCuts vs HiCuts": vs_hicuts.as_dict(),
        "NeuroCuts vs EffiCuts": vs_efficuts.as_dict(),
    }))
    print("medians:", {k: round(v, 1) for k, v in result.medians.items()})
    print("\ncompiled engine, bytes per rule:")
    print(comparison_table(result.compiled, "engine bytes_per_rule"))
    engine_to_model = result.engine_to_model()
    ratios = [ratio for per_label in engine_to_model.values()
              for ratio in per_label.values()]
    print("engine / model, median per algorithm:",
          {k: round(v, 2)
           for k, v in median_by_algorithm(engine_to_model).items()})
    print(f"engine / model, median over all {len(ratios)} cells: "
          f"{statistics.median(ratios):.2f}")

    labels = {label for label, _ in result.rows()}
    assert len(labels) == len(scale.specs())
    for values in result.values.values():
        assert all(v > 0 for v in values.values())

    # Qualitative shape from the paper: the partition-based algorithms
    # (EffiCuts, CutSplit, space-optimised NeuroCuts) use less memory per rule
    # at the median than the replication-prone HiCuts/HyperCuts trees.
    partition_based_median = min(result.medians["EffiCuts"],
                                 result.medians["CutSplit"],
                                 result.medians["NeuroCuts"])
    replication_prone_median = max(result.medians["HiCuts"],
                                   result.medians["HyperCuts"])
    assert partition_based_median <= replication_prone_median
    # NeuroCuts space-optimised should not be drastically worse than EffiCuts.
    assert result.medians["NeuroCuts"] <= 3.0 * result.medians["EffiCuts"]
    # The engine tracks the paper's memory model within a small constant.
    assert len(ratios) == len(result.values) * len(labels)
    assert statistics.median(ratios) <= MAX_MEDIAN_ENGINE_TO_MODEL
