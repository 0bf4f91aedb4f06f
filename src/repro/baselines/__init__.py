"""Baseline packet-classification algorithms the paper compares against."""

from repro.baselines.base import BuildResult, TreeBuilder
from repro.baselines.hicuts import HiCutsBuilder
from repro.baselines.hypercuts import HyperCutsBuilder
from repro.baselines.efficuts import EffiCutsBuilder
from repro.baselines.cutsplit import CutSplitBuilder
from repro.baselines.linear import LinearSearchBuilder

__all__ = [
    "BuildResult",
    "TreeBuilder",
    "HiCutsBuilder",
    "HyperCutsBuilder",
    "EffiCutsBuilder",
    "CutSplitBuilder",
    "LinearSearchBuilder",
]


def default_baselines(binth: int = 16) -> dict:
    """The four baselines of Figures 8–9, keyed by their paper names."""
    return {
        "HiCuts": HiCutsBuilder(binth=binth),
        "HyperCuts": HyperCutsBuilder(binth=binth),
        "EffiCuts": EffiCutsBuilder(binth=binth),
        "CutSplit": CutSplitBuilder(binth=binth),
    }
