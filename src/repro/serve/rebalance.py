"""Load-aware shard rebalancing: telemetry in, migration plans out.

Static round-robin sharding (:func:`repro.serve.sharded.shard_tenants`)
fixes tenant placement for the life of a run, so a flash crowd on one
tenant turns its shard into the hot spot while the others idle.  This
module closes the loop: a :class:`RebalancePolicy` consumes a
:class:`TelemetrySnapshot` — per-tenant request counters, queue-wait
percentiles, and ingestion goodput gauges, all read from the shards' live
:class:`~repro.obs.metrics.MetricsRegistry` instances — and emits a
:class:`MigrationPlan` naming which tenants should move where.  The
rebalancing front-end (:func:`repro.serve.sharded.serve_sharded` with
``rebalance_policy=``) executes the plan via live slot migration.

Determinism is the design constraint throughout:

* Snapshots are taken at **trace-clock interval boundaries** (the first
  event at or past ``k * interval`` triggers evaluation ``k``), never on
  the wall clock, so the same workload always produces the same sequence
  of snapshots.
* A policy's :meth:`~RebalancePolicy.plan` must be a **pure function of
  the snapshot** — no internal mutable state, no randomness.  Planning
  twice on the same snapshot must return the identical plan (the property
  tests in ``tests/test_shard_rebalance.py`` enforce this).
* :class:`LoadAwareRebalancePolicy` only emits **strictly improving**
  moves: each migration must lower the maximum shard load, which is a
  decreasing potential function — re-planning after applying a plan can
  never bounce a tenant back (no oscillation), and a balanced placement
  yields the empty plan.

Tenant load is attributed by *current placement*, not by which shard's
metrics hold the samples: a migrated tenant's request history follows it
to the target shard when shard loads are computed.  Without this, the
source shard would keep a ghost of the migrated tenant's past load and
the policy would over-correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.serialize import stable_dict

#: Prefix of the per-tenant request counters the serving session maintains.
TENANT_REQUESTS_PREFIX = "serve.tenant_requests."

#: Default trace-seconds between rebalance evaluations.
DEFAULT_REBALANCE_INTERVAL = 0.05


# --------------------------------------------------------------------------- #
# Telemetry snapshot
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TenantLoad:
    """One tenant's load figures at snapshot time.

    ``requests`` is cumulative over the whole run and summed across every
    shard's registry, so it stays meaningful for tenants that already
    migrated (their early samples live in the source shard's metrics).
    """

    tenant_id: str
    #: Requests served so far (all shards, cumulative).
    requests: int
    #: Ingestion goodput gauge (``ingest.goodput_pps.<tenant>``), 0.0 when
    #: no ingestion frontend is attached.
    goodput_pps: float = 0.0
    #: Requests currently queued in the owning shard's micro-batcher.
    queue_depth: int = 0


@dataclass(frozen=True)
class ShardTelemetry:
    """One logical shard's view at snapshot time."""

    shard_index: int
    #: Tenants currently placed on this shard, with their loads.
    tenants: Tuple[TenantLoad, ...]
    #: p99 of ``serve.queue_wait_seconds`` on this shard (0.0 when the
    #: shard has served nothing yet).
    queue_wait_p99: float = 0.0

    @property
    def total_requests(self) -> int:
        return sum(t.requests for t in self.tenants)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Everything a rebalance policy may look at, frozen at one instant.

    Policies must treat this as their *only* input: two calls on equal
    snapshots must return equal plans.
    """

    #: Which interval boundary triggered this snapshot (1 = first).
    interval: int
    #: Trace timestamp of the event that crossed the boundary.
    time: float
    shards: Tuple[ShardTelemetry, ...]

    def placement(self) -> Dict[str, int]:
        """Current tenant -> shard-index assignment."""
        return {t.tenant_id: shard.shard_index
                for shard in self.shards for t in shard.tenants}

    def shard_loads(self) -> Dict[int, int]:
        """Total served requests per shard under the current placement."""
        return {shard.shard_index: shard.total_requests
                for shard in self.shards}

    @classmethod
    def capture(
        cls,
        interval: int,
        time: float,
        placements: Mapping[str, int],
        registries: Sequence[MetricsRegistry],
        queue_depths: Optional[Mapping[str, int]] = None,
        goodput: Optional[Mapping[str, float]] = None,
    ) -> "TelemetrySnapshot":
        """Read the live registries into a frozen snapshot.

        ``registries`` is indexed by shard; per-tenant request counters are
        summed across *all* of them (migrated tenants leave samples
        behind), then attributed to the shard ``placements`` currently
        assigns the tenant to.  ``goodput`` carries the front-end admission
        controller's per-tenant goodput when one is attached.
        """
        requests: Dict[str, int] = {}
        for registry in registries:
            for name, counter in registry.counters.items():
                if name.startswith(TENANT_REQUESTS_PREFIX):
                    tenant_id = name[len(TENANT_REQUESTS_PREFIX):]
                    requests[tenant_id] = \
                        requests.get(tenant_id, 0) + counter.value
        by_shard: Dict[int, List[TenantLoad]] = \
            {index: [] for index in range(len(registries))}
        for tenant_id in sorted(placements):
            shard_index = placements[tenant_id]
            by_shard.setdefault(shard_index, []).append(TenantLoad(
                tenant_id=tenant_id,
                requests=requests.get(tenant_id, 0),
                goodput_pps=(goodput or {}).get(tenant_id, 0.0),
                queue_depth=(queue_depths or {}).get(tenant_id, 0),
            ))
        shards = tuple(
            ShardTelemetry(
                shard_index=index,
                tenants=tuple(by_shard.get(index, ())),
                queue_wait_p99=(
                    registries[index]
                    .timing("serve.queue_wait_seconds").percentile(99.0)
                    if index < len(registries) else 0.0
                ),
            )
            for index in sorted(by_shard)
        )
        return cls(interval=interval, time=time, shards=shards)


# --------------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TenantMigration:
    """Move one tenant from ``source_shard`` to ``target_shard``."""

    tenant_id: str
    source_shard: int
    target_shard: int

    def as_dict(self) -> dict:
        return stable_dict({
            "tenant_id": self.tenant_id,
            "source_shard": self.source_shard,
            "target_shard": self.target_shard,
        })


@dataclass(frozen=True)
class MigrationPlan:
    """The (possibly empty) set of moves one evaluation decided on."""

    interval: int
    migrations: Tuple[TenantMigration, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.migrations)


# --------------------------------------------------------------------------- #
# Policies
# --------------------------------------------------------------------------- #

class RebalancePolicy:
    """Base class: turn a telemetry snapshot into a migration plan.

    Subclasses implement :meth:`plan` as a *pure function of the
    snapshot*: no mutable internal state, no clocks, no randomness.  The
    front-end owns when snapshots are taken and how plans are executed; a
    policy only decides *what should move*.
    """

    name = "none"

    def plan(self, snapshot: TelemetrySnapshot) -> MigrationPlan:
        raise NotImplementedError


class NoRebalancePolicy(RebalancePolicy):
    """Never migrates (the explicit form of static placement)."""

    name = "none"

    def plan(self, snapshot: TelemetrySnapshot) -> MigrationPlan:
        return MigrationPlan(interval=snapshot.interval)


@dataclass(frozen=True)
class LoadAwareRebalancePolicy(RebalancePolicy):
    """Greedy strictly-improving moves from the hottest to the coldest shard.

    Each evaluation:

    1. Compute per-shard loads (served requests under current placement).
    2. If ``max_load <= imbalance_ratio * mean_load``, the placement is
       balanced enough: return the empty plan (conservatism — migrations
       are not free, so near-balance is left alone).
    3. Otherwise pick the hottest shard (ties broken by lowest index) and
       the coldest shard, and move the largest tenant of the hottest shard
       whose move *strictly lowers the maximum of the two shards' loads*
       (ties between tenants broken by tenant id).  Repeat against the
       post-move loads up to ``max_migrations_per_cycle`` times; a tenant
       moved earlier in the plan is not moved again.

    Every move strictly decreases ``max(shard loads)`` restricted to the
    pair involved, and never raises the global maximum — a decreasing
    potential, so iterating the policy terminates and two consecutive
    evaluations on the same telemetry can never ping-pong a tenant.
    """

    name = "load"

    #: Plans stay empty until the hottest shard exceeds this multiple of
    #: the mean shard load.
    imbalance_ratio: float = 1.2
    #: Upper bound on moves per evaluation (migrations drain and recompile,
    #: so plans are kept small and the next interval re-evaluates).
    max_migrations_per_cycle: int = 1

    def __post_init__(self) -> None:
        if self.imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1.0")
        if self.max_migrations_per_cycle < 1:
            raise ValueError("max_migrations_per_cycle must be >= 1")

    def plan(self, snapshot: TelemetrySnapshot) -> MigrationPlan:
        if len(snapshot.shards) < 2:
            return MigrationPlan(interval=snapshot.interval)
        loads = snapshot.shard_loads()
        tenants: Dict[int, List[TenantLoad]] = {
            shard.shard_index: sorted(shard.tenants,
                                      key=lambda t: (-t.requests, t.tenant_id))
            for shard in snapshot.shards
        }
        moves: List[TenantMigration] = []
        for _ in range(self.max_migrations_per_cycle):
            mean = sum(loads.values()) / len(loads)
            hot = min(loads, key=lambda i: (-loads[i], i))
            cold = min(loads, key=lambda i: (loads[i], i))
            if hot == cold or loads[hot] <= self.imbalance_ratio * mean:
                break
            move = None
            for tenant in tenants[hot]:
                # Strict improvement on the pair: after the move, neither
                # shard may reach the hot shard's current load.
                if max(loads[hot] - tenant.requests,
                       loads[cold] + tenant.requests) < loads[hot]:
                    move = tenant
                    break
            if move is None:
                break
            moves.append(TenantMigration(tenant_id=move.tenant_id,
                                         source_shard=hot,
                                         target_shard=cold))
            loads[hot] -= move.requests
            loads[cold] += move.requests
            # Its load now counts on the cold shard, but the tenant is not
            # a candidate there: one move per tenant per plan, so every
            # move's source is the live placement the front-end checks.
            tenants[hot] = [t for t in tenants[hot]
                            if t.tenant_id != move.tenant_id]
        return MigrationPlan(interval=snapshot.interval,
                             migrations=tuple(moves))


@dataclass(frozen=True)
class ScheduledRebalancePolicy(RebalancePolicy):
    """Migrate named tenants at named interval boundaries, unconditionally.

    The test harness's forcing policy: differential tests use it to inject
    migrations at known trace-clock points regardless of load, so the
    exactness and determinism contracts can be exercised without having to
    construct a load imbalance.  ``moves`` is a sequence of
    ``(interval, tenant_id, target_shard)`` triples; the source shard is
    read from the snapshot's placement, and moves that are already
    satisfied (tenant on the target) or name unknown tenants are skipped.
    Still a pure function of the snapshot: the schedule is frozen at
    construction.
    """

    name = "scheduled"

    moves: Tuple[Tuple[int, str, int], ...] = ()

    def plan(self, snapshot: TelemetrySnapshot) -> MigrationPlan:
        placement = snapshot.placement()
        migrations = []
        for interval, tenant_id, target in self.moves:
            if interval != snapshot.interval:
                continue
            source = placement.get(tenant_id)
            if source is None or source == target:
                continue
            if target >= len(snapshot.shards):
                continue
            migrations.append(TenantMigration(tenant_id=tenant_id,
                                              source_shard=source,
                                              target_shard=target))
        return MigrationPlan(interval=snapshot.interval,
                             migrations=tuple(migrations))


#: Policy names accepted by the CLI / harness (factories, not instances:
#: policies are cheap and some runs want fresh dataclass instances).
REBALANCE_POLICIES = {
    "none": NoRebalancePolicy,
    "load": LoadAwareRebalancePolicy,
}


def make_rebalance_policy(name: str) -> RebalancePolicy:
    """Build a rebalance policy by CLI name."""
    factory = REBALANCE_POLICIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown rebalance policy {name!r}; "
            f"choose from {sorted(REBALANCE_POLICIES)}"
        )
    return factory()
