"""The retrain-on-churn control loop: watch slots, retrain, swap the tree.

PR 1–3 left a gap between the serving layer and the trainer: an
:class:`~repro.serve.engines.EngineSlot` whose ``needs_retraining()`` fires
had no one listening.  The :class:`RetrainController` closes that loop.  It
watches every slot's accumulated-update counters, and when a tenant's drift
crosses its retrain threshold it launches a background NeuroCuts training
job (a :func:`repro.neurocuts.service.run_retrain` task on a
``concurrent.futures`` executor from :func:`repro.executors.make_executor`),
then installs the resulting *tree* — not just
recompiled arrays — through the slot's double-buffered
:meth:`~repro.serve.engines.EngineSlot.adopt_classifier` path.  Rule churn
that lands while the retrain is running is replayed onto the new tree at
installation, so the per-epoch exactness guarantees hold across the whole
retrain → adopt → swap sequence.

**Thread-safety.**  The controller itself runs on the serving thread —
``poll_tenant``/``drain`` are called between batches, exactly like slot
methods.  Only the *training job* runs elsewhere (a thread-pool or
process-pool task, per :class:`RetrainPolicy.backend`); completions are
detected by polling the job's future, and installation always happens on
the serving thread.  With ``backend="serial"`` the retrain runs inline at
trigger time, which keeps single-threaded runs deterministic.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.executors import EXECUTOR_BACKENDS, make_executor
from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.service import (
    RetrainRequest,
    RetrainResponse,
    default_retrain_config,
    run_retrain,
)
from repro.obs.serialize import stable_dict
from repro.rules.ruleset import RuleSet
from repro.serve.registry import TenantRegistry, UnknownTenantError


def classifier_objective(stats, time_space_coeff: float) -> float:
    """The scalar time/space objective a retrained tree must beat.

    Mirrors the paper's weighted objective (Section 4.2): the time term is
    the classifier's worst-case traversal cost in node accesses, the space
    term its per-rule memory footprint.  ``time_space_coeff=1.0`` (the
    default policy) reduces to pure classification time.  Both terms come
    from :mod:`repro.tree.stats` so the gate compares candidate and
    incumbent under the identical cost model used by the figure benchmarks.
    """
    return (time_space_coeff * stats.classification_time
            + (1.0 - time_space_coeff) * stats.bytes_per_rule)


@dataclass(frozen=True)
class RetrainPolicy:
    """How (and how hard) to retrain when a slot's drift crosses threshold.

    Attributes:
        timesteps: NeuroCuts timestep budget per retrain job.  Serving-loop
            retrains favour turnaround over ultimate tree quality; see
            :func:`repro.neurocuts.service.default_retrain_config`.
        max_iterations: optional PPO-iteration cap per job (tests use this
            to bound wall time independently of the timestep budget).
        backend: where the retrain job itself runs — ``"thread"`` (default:
            overlaps serving in-process, no pickling), ``"process"`` (a
            spawn pool; request/response are picklable by construction), or
            ``"serial"`` (inline at trigger time, deterministic).
        time_space_coeff: the paper's time/space coefficient for the
            retrained tree's objective.
        quality_gate: when True (default), a finished retrain is only
            adopted if its time/space objective *strictly beats* the
            incrementally-patched incumbent classifier; otherwise it is
            rejected (counted in :attr:`RetrainStats.rejected`) and the
            incumbent keeps serving.  Training is stochastic — a short
            retrain budget can produce a worse tree than the patched
            original, and adopting it unconditionally would regress
            serving latency.  Set False to restore unconditional adoption
            (tests of the adoption mechanics use this).
        seed: base RNG seed; each launched job derives its own seed from
            this plus the per-tenant launch counter, so successive retrains
            explore different rollouts.
    """

    timesteps: int = 3_000
    max_iterations: Optional[int] = None
    backend: str = "thread"
    time_space_coeff: float = 1.0
    quality_gate: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if self.backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"backend must be one of {EXECUTOR_BACKENDS}, "
                f"got {self.backend!r}"
            )

    def training_config(self, seed: int) -> NeuroCutsConfig:
        """The NeuroCuts configuration one retrain job runs with."""
        return default_retrain_config(
            timesteps=self.timesteps,
            seed=seed,
            time_space_coeff=self.time_space_coeff,
            reward_scaling="log" if self.time_space_coeff < 1.0 else "linear",
        )


@dataclass
class RetrainStats:
    """Counters describing the controller's activity."""

    #: Retrain jobs launched (a tenant crossed its threshold).
    triggered: int = 0
    #: Retrained trees installed through ``adopt_classifier``.
    installed: int = 0
    #: Finished jobs thrown away (tenant deregistered while training).
    discarded: int = 0
    #: Finished jobs whose tree failed the quality gate (objective did not
    #: beat the patched incumbent); the incumbent kept serving.
    rejected: int = 0
    #: Wall seconds each *installed* job spent training, in install order.
    train_seconds: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return stable_dict({
            "triggered": self.triggered,
            "installed": self.installed,
            "discarded": self.discarded,
            "rejected": self.rejected,
            "mean_train_seconds": (
                sum(self.train_seconds) / len(self.train_seconds)
                if self.train_seconds else 0.0
            ),
        })


@dataclass
class _RetrainJob:
    """One in-flight retrain: the future plus the snapshot it trains on."""

    tenant_id: str
    base_ruleset: RuleSet
    future: Future[RetrainResponse]
    #: The incumbent's objective at launch, when it served exactly
    #: ``base_ruleset`` — the apples-to-apples bar for the quality gate.
    incumbent_objective: float = float("inf")


class RetrainController:
    """Watches a registry's slots and closes the retrain-on-churn loop.

    Args:
        registry: the registry whose tenants are watched.
        policy: training budget, backend, and objective knobs.  The
            controller owns a one-worker executor built by
            :func:`repro.executors.make_executor` from ``policy.backend``.

    Call :meth:`poll_tenant` from the serving loop (cheap: a dict probe and
    a counter comparison), :meth:`drain` at quiesce points to land every
    in-flight job, and :meth:`close` when done.
    """

    def __init__(self, registry: TenantRegistry,
                 policy: RetrainPolicy = RetrainPolicy()) -> None:
        self.registry = registry
        self.policy = policy
        self.stats = RetrainStats()
        # One worker per concurrently-retraining tenant is overkill on
        # small machines; a single background worker serialises jobs while
        # keeping them off the serving thread.
        self._executor = make_executor(1, backend=policy.backend)
        self._jobs: Dict[str, _RetrainJob] = {}
        self._launch_counts: Dict[str, int] = {}
        #: Wall seconds the calling (serving) thread has spent handing jobs
        #: to the executor: each whole training on the serial backend.
        self.launch_seconds = 0.0

    # ------------------------------------------------------------------ #
    # The control loop
    # ------------------------------------------------------------------ #

    def poll_tenant(self, tenant_id: str) -> bool:
        """Advance one tenant's retrain state machine; True if a tree landed.

        Installs the tenant's retrained tree if its job finished, otherwise
        launches a job if the slot crossed its threshold and none is in
        flight.  Non-blocking except on the serial backend (where launching
        *is* the retrain).
        """
        job = self._jobs.get(tenant_id)
        if job is not None:
            if not job.future.done():
                return False
            del self._jobs[tenant_id]
            return self._install(job)
        slot = self.registry.slot(tenant_id)
        if slot.needs_retraining():
            self._launch(tenant_id)
            # Serial jobs complete inside _launch; land them immediately so
            # the very next batch serves from the retrained tree.
            job = self._jobs[tenant_id]
            if job.future.done():
                del self._jobs[tenant_id]
                return self._install(job)
        return False

    def drain(self) -> List[str]:
        """Block until every in-flight retrain finishes and installs.

        A quiesce point (end of trace, shutdown) — the registry's own
        ``drain()`` should follow so the adopted trees' engine rebuilds are
        installed too.  Returns the tenants whose trees were installed.
        """
        landed = []
        for tenant_id, job in list(self._jobs.items()):
            del self._jobs[tenant_id]
            if self._install(job):
                landed.append(tenant_id)
        return landed

    def close(self) -> None:
        """Shut down the controller's executor (idempotent).

        A job still running is waited for; queued ones are cancelled.
        """
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "RetrainController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _launch(self, tenant_id: str) -> None:
        slot = self.registry.slot(tenant_id)
        count = self._launch_counts.get(tenant_id, 0)
        self._launch_counts[tenant_id] = count + 1
        base = slot.ruleset
        request = RetrainRequest(
            tenant_id=tenant_id,
            ruleset=base,
            config=self.policy.training_config(
                seed=self.policy.seed + 9973 * count
                + (zlib.crc32(tenant_id.encode()) & 0xFFFF)
            ),
            max_iterations=self.policy.max_iterations,
        )
        incumbent = classifier_objective(slot.classifier.stats(),
                                         self.policy.time_space_coeff)
        began = time.perf_counter()
        future = self._executor.submit(run_retrain, request)
        self.launch_seconds += time.perf_counter() - began
        self._jobs[tenant_id] = _RetrainJob(
            tenant_id=tenant_id, base_ruleset=base, future=future,
            incumbent_objective=incumbent,
        )
        self.stats.triggered += 1

    def _install(self, job: _RetrainJob) -> bool:
        response = job.future.result()
        try:
            slot = self.registry.slot(job.tenant_id)
        except UnknownTenantError:
            self.stats.discarded += 1
            return False
        classifier = response.classifier(job.base_ruleset)
        if self.policy.quality_gate:
            # Strict improvement required: a tie means the retrain bought
            # nothing, so the incumbent (with its warm flow cache and
            # already-compiled engine) keeps serving.  The bar is the
            # incumbent's objective *at launch*, when both trees served
            # exactly ``base_ruleset``: updates that raced the retrain are
            # replayed onto the candidate at adoption anyway, and reading
            # the incumbent at install time instead would make the verdict
            # depend on how many of them landed first — i.e. on backend
            # scheduling, breaking serial/thread/process count parity.
            coeff = self.policy.time_space_coeff
            candidate = classifier_objective(classifier.stats(), coeff)
            if candidate >= job.incumbent_objective:
                self.stats.rejected += 1
                # Restart the drift counters: without this the very next
                # poll would relaunch the same losing retrain in a loop.
                slot.note_retrain_rejected()
                slot.metrics.counter("serve.retrains_rejected").inc()
                return False
        slot.adopt_classifier(classifier, base_ruleset=job.base_ruleset)
        self.stats.installed += 1
        self.stats.train_seconds.append(response.wall_seconds)
        # The retrain-job phase span: training ran off-thread, so the job's
        # own wall time is observed at install rather than wrapped inline.
        slot.metrics.timing("serve.retrain_seconds").observe(
            response.wall_seconds)
        return True
