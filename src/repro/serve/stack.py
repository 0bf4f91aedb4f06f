"""The serving knobs as one value, and the one place a stack is wired.

:class:`ServingConfig` is every serving knob as one frozen, picklable value:
the layers between an entry point (``run_serving``, ``replay_trace``, the
CLI) and the classes that read the knobs pass *the config*, not its fields.
:class:`ServingStack` wires a config plus a tenant roster into registry →
registered tenants → optional retrain controller → classification service.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.ingest.admission import IngestConfig
from repro.rules.ruleset import RuleSet
from repro.serve.batcher import BatchPolicy
from repro.serve.controller import RetrainController, RetrainPolicy
from repro.serve.engines import DEFAULT_RETRAIN_THRESHOLD
from repro.serve.registry import TenantRegistry
from repro.serve.service import ClassificationService


@dataclass(frozen=True)
class ServingConfig:
    """Every serving knob as one value.

    Each field is range-checked by the class that reads it
    (:class:`BatchPolicy`, :class:`RetrainPolicy`, ``IngestConfig``).
    How engines swap is not a knob: a rule update rebuilds its tenant's
    engine inline, so with serial retrains every counter is a pure function
    of the workload (the determinism contract of traces and scorecards).

    Attributes:
        max_batch: micro-batcher release size (:class:`BatchPolicy`).
        max_delay: micro-batcher deadline in trace seconds.
        flow_cache_size: per-tenant LRU flow cache capacity (``None`` = off).
        record_batches: keep every served batch, for
            ``ServingResult.verify_exactness`` and golden columns.
        retrain_threshold: accumulated rule updates at which a slot advises
            a retrain (``None`` = never).
        retrain_policy: how retrains run; a ``RetrainController`` is attached
            exactly when this is set.
        ingest: admission control ahead of the batcher (``None`` = off).
    """

    max_batch: int = 64
    max_delay: float = 1e-3
    flow_cache_size: Optional[int] = 2048
    record_batches: bool = False
    retrain_threshold: Optional[int] = None
    retrain_policy: Optional[RetrainPolicy] = None
    ingest: Optional[IngestConfig] = None

    def describe(self) -> Dict[str, object]:
        """The config as a JSON-safe scorecard ``config`` block: scalar
        fields as they are, nested configs field by field — so two runs
        that differ in any knob differ here."""
        return asdict(self)


def epoch_rulesets(registry: TenantRegistry) -> Dict[str, List[RuleSet]]:
    """Per tenant: the ruleset snapshot of every engine epoch, in order —
    what a batch served at epoch ``e`` is checked against."""
    history = {}
    for tenant_id in registry.tenants():
        slot = registry.slot(tenant_id)
        history[tenant_id] = [slot.ruleset_at(epoch)
                              for epoch in range(slot.epoch + 1)]
    return history


class ServingStack:
    """One wired serving stack over a roster of tenants.

    Owns the :class:`TenantRegistry` (engines compile during construction),
    the :class:`RetrainController` when ``config.retrain_policy`` is set, and
    the :class:`ClassificationService` in front of them; :meth:`close`
    releases the one thing that is not plain memory, the retrain executor.

    ``tenants`` is anything with ``tenant_id`` / ``algorithm`` / ``binth``
    (a ``TenantSpec``).
    """

    def __init__(self, config: ServingConfig, tenants: Sequence,
                 rulesets: Mapping[str, RuleSet]) -> None:
        self.registry = TenantRegistry(
            default_flow_cache_size=config.flow_cache_size,
            default_retrain_threshold=config.retrain_threshold
            if config.retrain_threshold is not None
            else DEFAULT_RETRAIN_THRESHOLD,
        )
        for tenant in tenants:
            self.registry.register(tenant.tenant_id,
                                   rulesets[tenant.tenant_id],
                                   algorithm=tenant.algorithm,
                                   binth=tenant.binth)
        self.controller = RetrainController(self.registry,
                                            config.retrain_policy) \
            if config.retrain_policy is not None else None
        self.service = ClassificationService(
            self.registry,
            BatchPolicy(max_batch=config.max_batch,
                        max_delay=config.max_delay),
            record_batches=config.record_batches,
            retrain_controller=self.controller,
            ingest=config.ingest,
        )

    def close(self) -> None:
        """Shut the retrain executor down (idempotent)."""
        if self.controller is not None:
            self.controller.close()
