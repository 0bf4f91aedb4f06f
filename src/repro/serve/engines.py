"""Double-buffered engine slots: zero-downtime rule updates per tenant.

A tenant's packets are served from a compiled engine (flat arrays); its rule
updates are applied to the *Python* tree through
:class:`~repro.neurocuts.updates.IncrementalUpdater`, which records the
leaves it edits, and only those leaves are re-spanned into the next engine
(:func:`~repro.engine.compile.partial_compile_classifier`) in the background
while the old engine keeps serving.  The finished engine is
swapped in atomically between batches, keyed on the trees' structural
version counters so a swap can never install arrays compiled from a stale
tree.  The serving path therefore never waits for a recompile — the only
stall happens if a *second* update arrives while the previous rebuild is
still in flight, in which case the slot joins the builder first (counted in
:class:`SwapStats`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engine.cache import DEFAULT_FLOW_CACHE_SIZE, FlowCacheStats
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
    """Bookkeeping about engine swaps and the stalls they (rarely) cause."""

    swaps: int = 0
    #: Updates that had to join a still-running rebuild before applying.
    stalls: int = 0
    #: Total seconds spent blocked on in-flight rebuilds.
    stall_seconds: float = 0.0
    #: Wall seconds each background rebuild took, in swap order.
    build_seconds: List[float] = field(default_factory=list)
    #: Discarded shadow engines (compiled from a tree version that moved on).
    stale_builds: int = 0

    def merge(self, other: "SwapStats") -> "SwapStats":
        """Accumulate another slot's counters (telemetry across tenants).

        ``build_seconds`` concatenates, so the merged mean (and any
        percentile a caller computes) is exact over the union.
        """
        self.swaps += other.swaps
        self.stalls += other.stalls
        self.stall_seconds += other.stall_seconds
        self.build_seconds.extend(other.build_seconds)
        self.stale_builds += other.stale_builds
        return self

    def as_dict(self) -> dict:
        return stable_dict({
            "swaps": self.swaps,
            "stalls": self.stalls,
            "stall_seconds": self.stall_seconds,
            "stale_builds": self.stale_builds,
            "mean_build_seconds": (
                sum(self.build_seconds) / len(self.build_seconds)
                if self.build_seconds else 0.0
            ),
        })


class EngineSlot:
    """One tenant's serving state: live engine, shadow engine, update path.

    The *active* engine serves every batch.  :meth:`apply_update` edits the
    decision trees incrementally, snapshots the post-update ruleset, and
    kicks off a rebuild (a daemon thread when ``background=True``, inline
    otherwise).  :meth:`engine` is the per-batch accessor: it installs a
    finished shadow engine — the atomic swap — and returns the current one.
    :meth:`adopt_classifier` swaps the decision *trees* themselves (a
    retrained tree, not just recompiled arrays) through the same
    double-buffered path.

    Epochs number the engine generations: epoch 0 is the engine compiled at
    registration, and every swap increments it.  ``ruleset_at(epoch)``
    returns the exact ruleset an epoch's engine was compiled from, which is
    what lets benchmarks assert differential exactness *across* a hot swap.

    **Thread-safety.**  A slot assumes *one* serving thread: every public
    method must be called from that thread.  The only concurrency is the
    slot's own builder thread, which exclusively *reads* the trees while
    compiling the shadow engine — the serving thread never mutates them with
    a build in flight because every mutating method joins the builder first.
    Do not call slot methods from multiple threads.

    **Stall vs quiesce.**  Waiting on the builder is counted as a *stall*
    (``SwapStats.stalls``) only when it delays the live update path — i.e. a
    second ``apply_update`` arrives while the previous rebuild is still in
    flight and must join it to keep epochs strictly ordered.  Waits at
    *quiesce points* — :meth:`force_swap` at end of trace, deregistration,
    or a retrain adoption — are not serving stalls and are not counted.
    """

    def __init__(
        self,
        tenant_id: str,
        classifier: TreeClassifier,
        flow_cache_size: Optional[int] = DEFAULT_FLOW_CACHE_SIZE,
        background: bool = True,
        retrain_threshold: int = DEFAULT_RETRAIN_THRESHOLD,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.classifier = classifier
        self.flow_cache_size = flow_cache_size
        self.background = background
        self.retrain_threshold = retrain_threshold
        self.swap_stats = SwapStats()
        #: Phase-timer spans land here; a registry-owned MetricsRegistry is
        #: shared across slots (see TenantRegistry), else the slot owns one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The builder thread records compile spans and counters, so every
        # series must exist before any build starts (list.append and the
        # int += are GIL-atomic under the one-builder-at-a-time invariant;
        # series *creation* is not).
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
        self._builder: Optional[threading.Thread] = None
        self._shadow_build_seconds: float = 0.0
        self._shadow: Optional[CompiledClassifier] = None
        self._shadow_ruleset: Optional[RuleSet] = None
        self._shadow_versions: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def ruleset(self) -> RuleSet:
        """The *latest* ruleset (updates applied, even mid-swap).

        The engine currently serving may still be a generation behind —
        ``ruleset_at(epoch)`` gives the snapshot it was compiled from.
        """
        return self.classifier.ruleset

    def ruleset_at(self, epoch: int) -> RuleSet:
        """The ruleset the given engine epoch was compiled from."""
        return self._rulesets[epoch]

    @property
    def swap_pending(self) -> bool:
        """True while an updated engine is being built or awaits install."""
        return self._builder is not None

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
        """A *consistent* per-tenant telemetry entry.

        Field-by-field reads (the old ``TenantRegistry.telemetry()`` path)
        can race a concurrent :meth:`adopt_classifier`: the classifier
        reference and the updater list are replaced in two steps, so a
        reader could pair the retrained trees with the pre-adopt update
        counters — a half-updated retrain entry.  The snapshot captures
        the references once, computes every figure from the captured pair,
        and retries if the slot swapped underneath — the same versioning
        discipline the end-of-trace quiesce gives ``ServingReport.metrics``.
        """
        while True:
            epoch = self.epoch
            classifier = self.classifier
            updaters = self._updaters
            entry = {
                "rules": len(classifier.ruleset),
                "epoch": epoch,
                "cache": self.cache_stats().as_dict(),
                "swap": self.swap_stats.as_dict(),
                "retrain": {
                    "accumulated_updates": sum(
                        u.stats.total_updates for u in updaters),
                    "threshold": self.retrain_threshold,
                    "needs_retraining": any(
                        u.needs_retraining() for u in updaters),
                },
            }
            if self.epoch == epoch and self.classifier is classifier \
                    and self._updaters is updaters:
                return entry

    # ------------------------------------------------------------------ #
    # Serving path
    # ------------------------------------------------------------------ #

    def engine(self) -> CompiledClassifier:
        """The engine to serve the next batch with (installs ready swaps)."""
        self._try_install()
        return self._active

    # ------------------------------------------------------------------ #
    # Update path
    # ------------------------------------------------------------------ #

    def apply_update(self, adds: Sequence[Rule] = (),
                     removes: Sequence[Rule] = ()) -> None:
        """Apply a rule update and schedule the engine rebuild.

        Removals are cleared from every tree; additions are routed into the
        first tree (every tree's root spans the full header space, and the
        multi-tree dispatch takes the best-priority match across trees, so
        one copy suffices).  The active engine keeps serving the *previous*
        ruleset until the rebuilt engine is swapped in.
        """
        if not adds and not removes:
            return
        # A still-running rebuild must land first: joining here (a stall)
        # keeps updates strictly ordered — every epoch's engine corresponds
        # to exactly one ruleset snapshot.
        self._join_builder(count_stall=True)
        for index, updater in enumerate(self._updaters):
            updater.apply(adds=adds if index == 0 else (), removes=removes)
        ruleset = self.ruleset.with_changes(adds, removes)
        self.classifier.ruleset = ruleset
        self._start_build(ruleset)

    def adopt_classifier(self, classifier: TreeClassifier,
                         base_ruleset: Optional[RuleSet] = None) -> None:
        """Swap in a replacement for the decision *trees* themselves.

        This is the install half of the retrain-on-churn loop: a background
        NeuroCuts run produced a fresh tree for ``base_ruleset`` (the
        snapshot of this slot's ruleset when the retrain launched), and the
        slot now replaces its trees wholesale — the same double-buffered
        path as :meth:`apply_update`, so the old engine keeps serving until
        the new tree's compiled engine is ready.

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

        Joining a still-running rebuild here is a quiesce, not a stall —
        the adoption supersedes whatever that rebuild would have installed.
        """
        self._join_builder(count_stall=False)
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
        self._start_build(current)

    def force_swap(self) -> None:
        """Block until any pending rebuild has been built and installed.

        A quiesce point (end of trace, deregistration) — waiting here is not
        a serving stall, so it is not counted in :class:`SwapStats`.
        """
        self._join_builder(count_stall=False)

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

    def _join_builder(self, count_stall: bool) -> None:
        if self._builder is None:
            return
        start = time.perf_counter()
        alive = self._builder.is_alive()
        self._builder.join()
        if alive and count_stall:
            self.swap_stats.stalls += 1
            self.swap_stats.stall_seconds += time.perf_counter() - start
        self._try_install()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _versions(self) -> Tuple[int, ...]:
        return tuple(tree.version for tree in self.classifier.trees)

    def _start_build(self, target_ruleset: RuleSet) -> None:
        target_versions = self._versions()
        # Captured on the serving thread: _active cannot change while this
        # build is in flight (installs only happen once the builder exits).
        previous = self._active
        # Every build consumes the leaves edited since the last one, which
        # are exactly the edits ``previous`` does not hold.
        touched = [updater.take_touched() for updater in self._updaters]

        def build() -> None:
            # The builder only *reads* the trees; the main thread never
            # mutates them while a build is in flight (apply_update joins
            # first), so no lock is needed around the traversal.
            started = time.perf_counter()
            result = partial_compile_classifier(
                self.classifier, previous, touched,
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
            self._shadow_build_seconds = elapsed
            self._shadow = result.classifier
            self._shadow_ruleset = target_ruleset
            self._shadow_versions = target_versions

        if self.background:
            self._builder = threading.Thread(
                target=build, name=f"engine-build-{self.tenant_id}", daemon=True
            )
            self._builder.start()
            self._try_install()
        else:
            build()
            self._install_shadow()

    def _try_install(self) -> None:
        """Install the shadow engine if its build finished (the atomic swap)."""
        if self._builder is None or self._builder.is_alive():
            return
        self._builder.join()
        self._builder = None
        self._install_shadow()

    def _install_shadow(self) -> None:
        shadow, ruleset = self._shadow, self._shadow_ruleset
        versions = self._shadow_versions
        self._shadow = self._shadow_ruleset = self._shadow_versions = None
        if shadow is None or ruleset is None:
            return
        if versions != self._versions():
            # The trees moved on while this engine compiled; its arrays are
            # stale and must never serve.  (Unreachable through apply_update,
            # which serialises builds, but guards direct tree mutation.)
            self.swap_stats.stale_builds += 1
            self._start_build(self.classifier.ruleset)
            return
        install_start = time.perf_counter()
        if self._active.flow_cache is not None:
            # The retiring engine's cached flows are invalidated by the swap
            # (counted via clear()), then its counters fold into the totals.
            self._active.flow_cache.clear()
            self.retired_cache_stats.merge(self._active.flow_cache.stats)
        self._active = shadow
        self._rulesets.append(ruleset)
        self.epoch += 1
        self.swap_stats.swaps += 1
        self.swap_stats.build_seconds.append(self._shadow_build_seconds)
        self._install_timing.observe(time.perf_counter() - install_start)
