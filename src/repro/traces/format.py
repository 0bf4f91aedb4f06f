"""The serving-trace format: what a recorded run looks like in memory.

A :class:`ServingTrace` is a fully self-contained, byte-reproducible record
of one serving run: the tenant roster (specs plus each tenant's epoch-0
ruleset), every packet the run served as one row of a NumPy structured
array — 5-tuple, arrival timestamp, tenant, flow id, and the *golden
column*: the rule priority the live run matched — plus the rule-churn
sidecar (the mid-trace update schedule, as rule deltas keyed by event).
Nothing else is needed to replay the run: the replayer rebuilds the full
serving stack from the trace and drives it on the trace's own clock.

Determinism contract: served decisions are a pure function of (packet,
epoch ruleset) as long as engine swaps are synchronous
(``background_swaps=False``) and retrains run on the ``"serial"`` backend —
the epoch a packet is served under is then decided entirely by trace time,
never by wall-clock compile latency.  Record and replay under that contract
and the golden column is stable across machines, which is what makes
checked-in traces usable as regression gates (see docs/traces.md).

The on-disk encoding (magic, version, JSON header, ``np.save`` segments)
lives in :mod:`repro.traces.io`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import TraceFormatError
from repro.rules.packet import Packet
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.serve.batcher import Request
from repro.serve.service import RuleUpdate
from repro.workloads.scenario import MultiTenantWorkload, TenantSpec

#: First 8 bytes of every trace file.
TRACE_MAGIC = b"REPROTRC"

#: Bump on any change to the header schema or array dtypes.
TRACE_FORMAT_VERSION = 1

#: One row per served packet, in arrival order.  ``golden_matched`` is 0
#: when the live run matched no rule (then ``golden_priority`` is -1).
RECORD_DTYPE = np.dtype([
    ("time", "<f8"),
    ("tenant", "<u2"),
    ("flow_id", "<i4"),
    ("src_ip", "<u4"),
    ("dst_ip", "<u4"),
    ("src_port", "<u2"),
    ("dst_port", "<u2"),
    ("protocol", "u1"),
    ("golden_matched", "u1"),
    ("golden_priority", "<i8"),
])

#: One row per rule the trace references: the initial rulesets
#: (``event == -1``) plus every churn delta (``event`` indexes the event
#: table, ``op`` 0 = add / 1 = remove).  Ranges are half-open ``[lo, hi)``
#: per dimension in canonical order; ``hi`` can be 2**32 so int64.
RULE_DTYPE = np.dtype([
    ("tenant", "<u2"),
    ("event", "<i4"),
    ("op", "u1"),
    ("priority", "<i8"),
    ("lo", "<i8", (5,)),
    ("hi", "<i8", (5,)),
    ("name", "<U64"),
])

#: One row per churn event, in schedule order (row index == event id).
EVENT_DTYPE = np.dtype([
    ("time", "<f8"),
    ("tenant", "<u2"),
])

_OP_ADD = 0
_OP_REMOVE = 1


@dataclass
class ServingTrace:
    """One recorded serving run, ready to be written, replayed, or diffed.

    Attributes:
        specs: the tenant roster in table order (packet records reference
            tenants by index into this list).
        rulesets: each tenant's epoch-0 ruleset — the classifier its engine
            was compiled from at registration, before any churn.
        records: the packet records (:data:`RECORD_DTYPE`), arrival-ordered.
        updates: the churn schedule, in time order.
        seed: the scenario seed the run was generated from (metadata).
        scenario: free-form generation metadata (workload knobs) carried in
            the header; not needed for replay, but kept so ``trace diff``
            can tell two scenarios apart and ``trace inspect`` can show how
            a fixture was made.
    """

    specs: List[TenantSpec]
    rulesets: Dict[str, RuleSet]
    records: np.ndarray
    updates: List[RuleUpdate] = field(default_factory=list)
    seed: int = 0
    scenario: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records = np.asarray(self.records)
        self._validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if not self.specs:
            raise TraceFormatError("trace declares no tenants")
        tenant_ids = [spec.tenant_id for spec in self.specs]
        if len(set(tenant_ids)) != len(tenant_ids):
            raise TraceFormatError("trace declares duplicate tenant ids")
        for tenant_id in tenant_ids:
            if tenant_id not in self.rulesets:
                raise TraceFormatError(
                    f"trace tenant {tenant_id!r} has no initial ruleset"
                )
        if self.records.dtype != RECORD_DTYPE:
            raise TraceFormatError(
                f"packet records have dtype {self.records.dtype}, "
                f"expected {RECORD_DTYPE}"
            )
        if len(self.records) == 0:
            raise TraceFormatError("trace contains no packet records")
        times = self.records["time"]
        if not np.all(np.isfinite(times)) or float(times[0]) < 0.0:
            raise TraceFormatError("packet timestamps must be finite and >= 0")
        if np.any(np.diff(times) < 0):
            raise TraceFormatError("packet timestamps must be non-decreasing")
        max_tenant = int(self.records["tenant"].max())
        if max_tenant >= len(self.specs):
            raise TraceFormatError(
                f"packet record references tenant index {max_tenant} but the "
                f"trace declares only {len(self.specs)} tenant(s)"
            )
        known = set(tenant_ids)
        for i, update in enumerate(self.updates):
            if update.tenant_id not in known:
                raise TraceFormatError(
                    f"churn event references unregistered tenant "
                    f"{update.tenant_id!r}"
                )
            if not np.isfinite(update.time) or update.time < 0.0:
                raise TraceFormatError(
                    f"churn event {i} has invalid time {update.time!r}; "
                    f"event times must be finite and >= 0"
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def duration(self) -> float:
        """Trace seconds from first to last arrival (0 for one packet)."""
        times = self.records["time"]
        return float(times[-1] - times[0]) if len(times) else 0.0

    @property
    def tenant_ids(self) -> List[str]:
        return [spec.tenant_id for spec in self.specs]

    def golden_priority(self, row: int) -> Optional[int]:
        """The matched-rule priority the live run recorded for one row."""
        record = self.records[row]
        if not record["golden_matched"]:
            return None
        return int(record["golden_priority"])

    def describe(self) -> str:
        return (
            f"ServingTrace(tenants={len(self.specs)}, "
            f"records={self.num_records}, updates={len(self.updates)}, "
            f"duration={self.duration:.4f}s, seed={self.seed})"
        )

    # ------------------------------------------------------------------ #
    # Replay-side reconstruction
    # ------------------------------------------------------------------ #

    def requests(self) -> List[Request]:
        """The recorded packet stream as serving-layer requests.

        Row ``i`` becomes the request with ``seq == i``, so decisions made
        during a replay can be mapped back to the golden column no matter
        how batching reorders execution.
        """
        tenant_ids = self.tenant_ids
        try:
            return [
                Request(
                    tenant_id=tenant_ids[int(rec["tenant"])],
                    packet=Packet(
                        src_ip=int(rec["src_ip"]),
                        dst_ip=int(rec["dst_ip"]),
                        src_port=int(rec["src_port"]),
                        dst_port=int(rec["dst_port"]),
                        protocol=int(rec["protocol"]),
                    ),
                    time=float(rec["time"]),
                    flow_id=int(rec["flow_id"]),
                    seq=i,
                )
                for i, rec in enumerate(self.records)
            ]
        except Exception as error:
            raise TraceFormatError(
                f"trace packet records could not be decoded: {error}"
            ) from error

    def to_workload(self) -> MultiTenantWorkload:
        """Rebuild the workload this trace recorded.

        The result drives :func:`repro.harness.serving.run_serving` exactly
        like a generated workload would — same request stream, same churn
        schedule — except every byte comes from the file.
        """
        return MultiTenantWorkload(
            specs=list(self.specs),
            rulesets=dict(self.rulesets),
            requests=self.requests(),
            updates=list(self.updates),
        )

    # ------------------------------------------------------------------ #
    # Sidecar packing (used by repro.traces.io)
    # ------------------------------------------------------------------ #

    @property
    def num_sidecar_rules(self) -> int:
        """Rows the rule sidecar will hold (initial rules + churn deltas)."""
        return (
            sum(len(self.rulesets[s.tenant_id]) for s in self.specs)
            + sum(len(u.adds) + len(u.removes) for u in self.updates)
        )

    def rules_sidecar(self) -> np.ndarray:
        """Pack the initial rulesets and churn deltas into one rule table."""
        rows = []
        index = {spec.tenant_id: t for t, spec in enumerate(self.specs)}
        for spec in self.specs:
            for rule in self.rulesets[spec.tenant_id].rules:
                rows.append(_rule_row(index[spec.tenant_id], -1, _OP_ADD, rule))
        for event, update in enumerate(self.updates):
            tenant = index[update.tenant_id]
            for rule in update.adds:
                rows.append(_rule_row(tenant, event, _OP_ADD, rule))
            for rule in update.removes:
                rows.append(_rule_row(tenant, event, _OP_REMOVE, rule))
        table = np.zeros(len(rows), dtype=RULE_DTYPE)
        for i, row in enumerate(rows):
            table[i] = row
        return table

    def events_sidecar(self) -> np.ndarray:
        """Pack the churn-event schedule (row index == event id)."""
        index = {spec.tenant_id: t for t, spec in enumerate(self.specs)}
        table = np.zeros(len(self.updates), dtype=EVENT_DTYPE)
        for i, update in enumerate(self.updates):
            table[i] = (update.time, index[update.tenant_id])
        return table

    @classmethod
    def from_arrays(
        cls,
        header: dict,
        records: np.ndarray,
        rules: np.ndarray,
        events: np.ndarray,
    ) -> "ServingTrace":
        """Rebuild a trace from its decoded header and arrays.

        Raises :class:`~repro.exceptions.TraceFormatError` on any
        inconsistency — unknown tenant references, rules without a tenant,
        undeclarable rulesets — rather than letting NumPy or dataclass
        validation errors escape.
        """
        try:
            specs = [
                TenantSpec(
                    tenant_id=str(entry["tenant_id"]),
                    seed_name=str(entry.get("seed_name", "acl1")),
                    num_rules=int(entry.get("num_rules", 0)),
                    seed=int(entry.get("seed", 0)),
                    algorithm=str(entry.get("algorithm", "HiCuts")),
                    binth=int(entry.get("binth", 8)),
                )
                for entry in header.get("tenants", [])
            ]
            ruleset_names = {
                str(entry["tenant_id"]): str(entry.get("ruleset_name", ""))
                for entry in header.get("tenants", [])
            }
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(
                f"trace header tenant table is malformed: {error}"
            ) from error
        if not specs:
            raise TraceFormatError("trace header declares no tenants")

        try:
            initial: Dict[str, List[Rule]] = {s.tenant_id: [] for s in specs}
            deltas: Dict[int, dict] = {}
            for row in rules:
                tenant = int(row["tenant"])
                if tenant >= len(specs):
                    raise TraceFormatError(
                        f"rule sidecar references tenant index {tenant} but "
                        f"the trace declares only {len(specs)} tenant(s)"
                    )
                rule = Rule(
                    ranges=tuple(
                        (int(lo), int(hi))
                        for lo, hi in zip(row["lo"], row["hi"])
                    ),
                    priority=int(row["priority"]),
                    name=str(row["name"]),
                )
                event = int(row["event"])
                if event < 0:
                    initial[specs[tenant].tenant_id].append(rule)
                else:
                    if event >= len(events):
                        raise TraceFormatError(
                            f"rule sidecar references churn event {event} "
                            f"but the trace declares only {len(events)}"
                        )
                    op = int(row["op"])
                    if op not in (_OP_ADD, _OP_REMOVE):
                        raise TraceFormatError(
                            f"rule sidecar row carries unknown op code {op} "
                            f"(expected {_OP_ADD}=add or {_OP_REMOVE}=remove)"
                        )
                    delta = deltas.setdefault(
                        event, {"adds": [], "removes": []}
                    )
                    key = "adds" if op == _OP_ADD else "removes"
                    delta[key].append(rule)
        except TraceFormatError:
            raise
        except Exception as error:
            raise TraceFormatError(
                f"trace rule sidecar could not be decoded: {error}"
            ) from error

        rulesets: Dict[str, RuleSet] = {}
        for spec in specs:
            rule_list = initial[spec.tenant_id]
            if not rule_list:
                raise TraceFormatError(
                    f"trace tenant {spec.tenant_id!r} has no initial ruleset"
                )
            rulesets[spec.tenant_id] = RuleSet(
                rule_list, name=ruleset_names.get(spec.tenant_id, "")
            )

        updates: List[RuleUpdate] = []
        try:
            for event, row in enumerate(events):
                tenant = int(row["tenant"])
                if tenant >= len(specs):
                    raise TraceFormatError(
                        f"churn event {event} references tenant index "
                        f"{tenant} but the trace declares only "
                        f"{len(specs)} tenant(s)"
                    )
                delta = deltas.get(event, {"adds": [], "removes": []})
                updates.append(RuleUpdate(
                    tenant_id=specs[tenant].tenant_id,
                    time=float(row["time"]),
                    adds=tuple(delta["adds"]),
                    removes=tuple(delta["removes"]),
                ))
        except TraceFormatError:
            raise
        except Exception as error:
            raise TraceFormatError(
                f"trace churn sidecar could not be decoded: {error}"
            ) from error

        return cls(
            specs=specs,
            rulesets=rulesets,
            records=records,
            updates=updates,
            seed=int(header.get("seed", 0)),
            scenario=dict(header.get("scenario", {})),
        )

    def header(self) -> dict:
        """The JSON header this trace serialises with."""
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "seed": self.seed,
            "scenario": self.scenario,
            "tenants": [
                {
                    "tenant_id": spec.tenant_id,
                    "seed_name": spec.seed_name,
                    "num_rules": spec.num_rules,
                    "seed": spec.seed,
                    "algorithm": spec.algorithm,
                    "binth": spec.binth,
                    "ruleset_name": self.rulesets[spec.tenant_id].name,
                }
                for spec in self.specs
            ],
            "counts": {
                "records": int(self.num_records),
                "rules": self.num_sidecar_rules,
                "events": len(self.updates),
            },
        }

    # ------------------------------------------------------------------ #
    # Equality (field-for-field, used by round-trip tests and diff)
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServingTrace):
            return NotImplemented
        return (
            self.specs == other.specs
            and self.rulesets == other.rulesets
            and all(self.rulesets[t].name == other.rulesets[t].name
                    for t in self.rulesets)
            and np.array_equal(self.records, other.records)
            and self.updates == other.updates
            and self.seed == other.seed
            and self.scenario == other.scenario
        )


#: Character capacity of RULE_DTYPE's name field; longer names would be
#: silently truncated by NumPy, breaking the field-for-field round trip.
#: (NumPy unicode is 4 bytes per character.)
MAX_RULE_NAME_CHARS = RULE_DTYPE["name"].itemsize // 4


def _rule_row(tenant: int, event: int, op: int, rule: Rule) -> tuple:
    if len(rule.name) > MAX_RULE_NAME_CHARS:
        raise TraceFormatError(
            f"rule name {rule.name!r} is {len(rule.name)} characters; the "
            f"trace format stores at most {MAX_RULE_NAME_CHARS} and silent "
            f"truncation would break the round-trip contract"
        )
    los = [lo for lo, _ in rule.ranges]
    his = [hi for _, hi in rule.ranges]
    return (tenant, event, op, rule.priority, los, his, rule.name)
