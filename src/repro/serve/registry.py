"""The tenant registry: many classifiers behind one serving endpoint.

Each tenant owns a ruleset, a decision-tree classifier built by any of the
repository's algorithms (a baseline heuristic or a trained NeuroCuts tree),
and an :class:`~repro.serve.engines.EngineSlot` holding its live compiled
engine.  The registry is the control plane: tenants register and deregister
at runtime, and rule updates are routed to the owning slot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence

from repro.baselines import default_baselines
from repro.engine.cache import DEFAULT_FLOW_CACHE_SIZE
from repro.obs.metrics import MetricsRegistry
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.serve.engines import DEFAULT_RETRAIN_THRESHOLD, EngineSlot, \
    SwapStats
from repro.tree.lookup import TreeClassifier


class UnknownTenantError(KeyError):
    """Raised when a request or update names a tenant never registered."""


class TenantRegistry:
    """Registers tenants and owns their engine slots.

    **Thread-safety.**  Like the slots it owns, the registry expects a
    single serving thread: registration, updates (each one compiling and
    installing its tenant's next engine before it returns), and telemetry
    reads all happen from that thread.
    """

    def __init__(
        self,
        default_flow_cache_size: Optional[int] = DEFAULT_FLOW_CACHE_SIZE,
        background_swaps: bool = False,
        default_retrain_threshold: int = DEFAULT_RETRAIN_THRESHOLD,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Engines always rebuild inline.  ``background_swaps=False`` is still
        # accepted only because the frozen perfbench/ harness passes it
        # (ROADMAP item 10); drop the parameter at its next change.
        if background_swaps:
            raise ValueError("background_swaps=True is not supported: "
                             "engines always rebuild inline")
        self.default_flow_cache_size = default_flow_cache_size
        self.default_retrain_threshold = default_retrain_threshold
        #: Shared phase-timer registry: every slot this registry creates
        #: records compile/install/retrain spans here, so one merge covers
        #: the whole control plane.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._slots: "OrderedDict[str, EngineSlot]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._slots

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def tenants(self) -> List[str]:
        """Tenant ids in registration order."""
        return list(self._slots)

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #

    def register(
        self,
        tenant_id: str,
        ruleset: Optional[RuleSet] = None,
        classifier: Optional[TreeClassifier] = None,
        algorithm: str = "HiCuts",
        binth: int = 8,
        flow_cache_size: Optional[int] = None,
        retrain_threshold: Optional[int] = None,
    ) -> EngineSlot:
        """Register a tenant and compile its serving engine.

        Either pass a prebuilt ``classifier`` (e.g. a trained NeuroCuts
        tree) or a ``ruleset`` plus the name of a baseline ``algorithm`` to
        build one with.  ``retrain_threshold`` overrides the registry-wide
        default for when the slot's ``needs_retraining()`` starts advising a
        retrain.  Returns the tenant's engine slot.
        """
        if tenant_id in self._slots:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        if classifier is None:
            if ruleset is None:
                raise ValueError("register() needs a ruleset or a classifier")
            builders = default_baselines(binth=binth)
            builder = builders.get(algorithm)
            if builder is None:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; "
                    f"choose from {sorted(builders)}"
                )
            classifier = builder.build(ruleset)
        if flow_cache_size is None:
            flow_cache_size = self.default_flow_cache_size
        if retrain_threshold is None:
            retrain_threshold = self.default_retrain_threshold
        slot = EngineSlot(
            tenant_id,
            classifier,
            flow_cache_size=flow_cache_size,
            retrain_threshold=retrain_threshold,
            metrics=self.metrics,
        )
        self._slots[tenant_id] = slot
        self.metrics.gauge("serve.tenants").set(len(self._slots))
        return slot

    def deregister(self, tenant_id: str) -> EngineSlot:
        """Remove a tenant and return its slot."""
        slot = self.slot(tenant_id)
        del self._slots[tenant_id]
        self.metrics.gauge("serve.tenants").set(len(self._slots))
        return slot

    def slot(self, tenant_id: str) -> EngineSlot:
        slot = self._slots.get(tenant_id)
        if slot is None:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} is not registered "
                f"(known: {self.tenants()})"
            )
        return slot

    def apply_update(self, tenant_id: str, adds: Sequence[Rule] = (),
                     removes: Sequence[Rule] = ()) -> EngineSlot:
        """Route a rule update to the owning slot; its rebuilt engine is
        installed when this returns."""
        slot = self.slot(tenant_id)
        slot.apply_update(adds=adds, removes=removes)
        return slot

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def swap_stats(self) -> SwapStats:
        """Swap counters merged across every registered tenant's slot."""
        merged = SwapStats()
        for slot in self._slots.values():
            merged.merge(slot.swap_stats)
        return merged

    def telemetry(self) -> Dict[str, dict]:
        """Per-tenant cache, swap, and retrain counters, keyed by tenant id
        (each one :meth:`~repro.serve.engines.EngineSlot.telemetry_snapshot`).
        """
        return {
            tenant_id: slot.telemetry_snapshot()
            for tenant_id, slot in self._slots.items()
        }
