"""Engine slots: rule updates per tenant, swapped in between batches.

A tenant's packets are served from a compiled engine (flat arrays); its rule
updates are applied to the *Python* tree through
:class:`~repro.neurocuts.updates.IncrementalUpdater`, which records the
leaves it edits, and only those leaves are re-spanned into the next engine
(:func:`~repro.engine.compile.partial_compile_classifier`).  The rebuild runs
inside the update call, on the serving thread, and the new engine is
installed before the call returns: every batch after an update serves the
post-update ruleset, so the epoch a batch sees is decided by the update
schedule alone.  The cost is one partial compile per update —
``engine_build_ms`` in ``perfbench/``, a median of 0.30–0.37 ms on
``serve_churn`` on 2 vCPUs — paid at the update's barrier between batches
(timed per swap in :class:`SwapStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.engine.cache import DEFAULT_FLOW_CACHE_SIZE, FlowCacheStats
# Module-level bindings on purpose: perfbench's tracer patches
# ``repro.serve.engines.compile_classifier`` / ``partial_compile_classifier``.
from repro.engine.compile import compile_classifier, \
    partial_compile_classifier
from repro.engine.dispatch import CompiledClassifier
from repro.neurocuts.updates import IncrementalUpdater, UpdateStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.serialize import stable_dict
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.tree.lookup import TreeClassifier

#: Default number of accumulated rule updates before a slot advises a
#: retrain.  Effectively "never" — retraining is opt-in; pass a real
#: threshold to :class:`EngineSlot` (or ``TenantRegistry.register``) and pair
#: it with a :class:`~repro.serve.controller.RetrainController` to act on it.
DEFAULT_RETRAIN_THRESHOLD = 10 ** 9


@dataclass
class SwapStats:
    """Bookkeeping about engine swaps and what their rebuilds cost."""

    swaps: int = 0
    #: Wall seconds each rebuild took, in swap order.
    build_seconds: List[float] = field(default_factory=list)

    def merge(self, other: "SwapStats") -> "SwapStats":
        """Accumulate another slot's counters (telemetry across tenants).

        ``build_seconds`` concatenates, so the merged mean (and any
        percentile a caller computes) is exact over the union.
        """
        self.swaps += other.swaps
        self.build_seconds.extend(other.build_seconds)
        return self

    def as_dict(self) -> dict:
        return stable_dict({
            "swaps": self.swaps,
            "mean_build_seconds": (
                sum(self.build_seconds) / len(self.build_seconds)
                if self.build_seconds else 0.0
            ),
        })


class EngineSlot:
    """One tenant's serving state: the live engine and its update path.

    The *active* engine serves every batch (:meth:`engine`).
    :meth:`apply_update` edits the decision trees incrementally, snapshots
    the post-update ruleset, recompiles the edited leaves and installs the
    result — the swap — before it returns.  :meth:`adopt_classifier` swaps
    the decision *trees* themselves (a retrained tree, not just recompiled
    arrays) the same way.

    Epochs number the engine generations: epoch 0 is the engine compiled at
    registration, and every swap increments it.  ``ruleset_at(epoch)``
    returns the exact ruleset an epoch's engine was compiled from, which is
    what lets benchmarks assert differential exactness *across* a hot swap.

    **Thread-safety.**  A slot assumes *one* serving thread: every public
    method must be called from that thread, and nothing else reads or
    writes the slot's trees or engines.
    """

    def __init__(
        self,
        tenant_id: str,
        classifier: TreeClassifier,
        flow_cache_size: Optional[int] = DEFAULT_FLOW_CACHE_SIZE,
        retrain_threshold: int = DEFAULT_RETRAIN_THRESHOLD,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.classifier = classifier
        self.flow_cache_size = flow_cache_size
        self.retrain_threshold = retrain_threshold
        self.swap_stats = SwapStats()
        #: Phase-timer spans land here; a registry-owned MetricsRegistry is
        #: shared across slots (see TenantRegistry), else the slot owns one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._compile_timing = self.metrics.timing("engine.compile_seconds")
        self._partial_timing = self.metrics.timing(
            "engine.partial_compile_seconds")
        self._full_compiles = self.metrics.counter("engine.compiles_full")
        self._partial_compiles = self.metrics.counter(
            "engine.compiles_partial")
        self._compactions = self.metrics.counter("engine.compactions")
        self._leaves_respanned = self.metrics.gauge("engine.leaves_respanned")
        self._install_timing = self.metrics.timing(
            "serve.swap_install_seconds")
        #: Flow-cache counters of engines already retired by swaps.
        self.retired_cache_stats = FlowCacheStats()
        self._updaters = [
            IncrementalUpdater(tree, retrain_threshold=retrain_threshold)
            for tree in classifier.trees
        ]
        with self.metrics.span("engine.compile_seconds"):
            self._active = compile_classifier(classifier,
                                              flow_cache_size=flow_cache_size)
        self._full_compiles.inc()
        self._rulesets: List[RuleSet] = [classifier.ruleset]
        self.epoch = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def ruleset(self) -> RuleSet:
        """The latest ruleset: the one the active engine was compiled from."""
        return self.classifier.ruleset

    def ruleset_at(self, epoch: int) -> RuleSet:
        """The ruleset the given engine epoch was compiled from."""
        return self._rulesets[epoch]

    def needs_retraining(self) -> bool:
        """True once accumulated updates advise retraining (Section 4.2).

        Fires when any tree's accumulated add/remove count reaches
        ``retrain_threshold``.  The slot only *advises*; acting on it — a
        background NeuroCuts run followed by :meth:`adopt_classifier` —
        is the :class:`~repro.serve.controller.RetrainController`'s job.
        """
        return any(u.needs_retraining() for u in self._updaters)

    @property
    def updates_since_adoption(self) -> int:
        """Rule updates accumulated since the current trees were installed.

        Counted per tree and summed (an update touching several trees counts
        once per tree, matching how incremental patches degrade each tree).
        Resets when :meth:`adopt_classifier` installs retrained trees.
        """
        return sum(u.stats.total_updates for u in self._updaters)

    def cache_stats(self) -> FlowCacheStats:
        """Cumulative flow-cache counters across every engine generation."""
        total = self.retired_cache_stats.copy()
        if self._active.flow_cache is not None:
            total.merge(self._active.flow_cache.stats)
        return total

    def telemetry_snapshot(self) -> dict:
        """The per-tenant telemetry entry: size, epoch, cache, swap and
        retrain counters."""
        return {
            "rules": len(self.classifier.ruleset),
            "epoch": self.epoch,
            "cache": self.cache_stats().as_dict(),
            "swap": self.swap_stats.as_dict(),
            "retrain": {
                "accumulated_updates": self.updates_since_adoption,
                "threshold": self.retrain_threshold,
                "needs_retraining": self.needs_retraining(),
            },
        }

    # ------------------------------------------------------------------ #
    # Serving path
    # ------------------------------------------------------------------ #

    def engine(self) -> CompiledClassifier:
        """The engine to serve the next batch with."""
        return self._active

    # ------------------------------------------------------------------ #
    # Update path
    # ------------------------------------------------------------------ #

    def apply_update(self, adds: Sequence[Rule] = (),
                     removes: Sequence[Rule] = ()) -> None:
        """Apply a rule update and swap in the rebuilt engine.

        Removals are cleared from every tree; additions are routed into the
        first tree (every tree's root spans the full header space, and the
        multi-tree dispatch takes the best-priority match across trees, so
        one copy suffices).  Every batch served after this call sees the
        updated ruleset.
        """
        if not adds and not removes:
            return
        for index, updater in enumerate(self._updaters):
            updater.apply(adds=adds if index == 0 else (), removes=removes)
        ruleset = self.ruleset.with_changes(adds, removes)
        self.classifier.ruleset = ruleset
        self._rebuild(ruleset)

    def adopt_classifier(self, classifier: TreeClassifier,
                         base_ruleset: Optional[RuleSet] = None) -> None:
        """Swap in a replacement for the decision *trees* themselves.

        This is the install half of the retrain-on-churn loop: a background
        NeuroCuts run produced a fresh tree for ``base_ruleset`` (the
        snapshot of this slot's ruleset when the retrain launched), and the
        slot now replaces its trees wholesale, compiling and installing the
        new tree's engine before it returns — the same swap as
        :meth:`apply_update`.

        Rule updates that landed *while* the retrain ran are not lost:
        passing ``base_ruleset`` replays the delta between it and the
        current ruleset onto the new trees (via the same incremental-update
        machinery) before compiling, so the adopted epoch's snapshot equals
        the latest ruleset and per-epoch differential exactness holds
        across the adoption.  With ``base_ruleset=None`` the classifier is
        assumed to already match the current ruleset.

        Update counters restart from the replayed delta (normally zero):
        the retrain absorbed every update up to ``base_ruleset``, while
        churn that raced it remains incremental patchwork on the new trees
        and keeps counting toward the next retrain.
        """
        current = self.ruleset
        updaters = [
            IncrementalUpdater(tree, retrain_threshold=self.retrain_threshold)
            for tree in classifier.trees
        ]
        if base_ruleset is not None:
            # Rule is a hashable frozen dataclass, so the delta is two O(n)
            # set probes rather than quadratic list scans on the serving
            # thread; iteration order stays that of the rule lists.
            base_set = set(base_ruleset.rules)
            current_set = set(current.rules)
            removes = [rule for rule in base_ruleset.rules
                       if rule not in current_set]
            adds = [rule for rule in current.rules if rule not in base_set]
            for index, updater in enumerate(updaters):
                updater.apply(adds=adds if index == 0 else (),
                              removes=removes)
        classifier.ruleset = current
        self.classifier = classifier
        self._updaters = updaters
        self._rebuild(current)

    def note_retrain_rejected(self) -> None:
        """Reset the retrain trigger after a quality-gate rejection.

        The incrementally-patched incumbent beat the retrained candidate,
        i.e. the accumulated drift did not actually degrade this slot —
        so the evidence that triggered the retrain is spent.  Counting
        restarts from zero; without this the controller would relaunch on
        every poll against the same (already-refuted) counters.
        """
        for updater in self._updaters:
            updater.stats = UpdateStats()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _rebuild(self, ruleset: RuleSet) -> None:
        """Compile the trees into the next engine and install it (the swap).

        Every build consumes the leaves edited since the last one, which
        are exactly the edits the active engine does not hold.
        """
        touched = [updater.take_touched() for updater in self._updaters]
        started = time.perf_counter()
        result = partial_compile_classifier(
            self.classifier, self._active, touched,
            flow_cache_size=self.flow_cache_size)
        elapsed = time.perf_counter() - started
        if result.compacted:
            self._compactions.inc()
        if result.full_rebuild:
            self._full_compiles.inc()
            self._compile_timing.observe(elapsed)
        else:
            self._partial_compiles.inc()
            self._partial_timing.observe(elapsed)
            self._leaves_respanned.set(result.leaves_respanned)

        install_start = time.perf_counter()
        if self._active.flow_cache is not None:
            # The retiring engine's cached flows are invalidated by the swap
            # (counted via clear()), then its counters fold into the totals.
            self._active.flow_cache.clear()
            self.retired_cache_stats.merge(self._active.flow_cache.stats)
        self._active = result.classifier
        self._rulesets.append(ruleset)
        self.epoch += 1
        self.swap_stats.swaps += 1
        self.swap_stats.build_seconds.append(elapsed)
        self._install_timing.observe(time.perf_counter() - install_start)
