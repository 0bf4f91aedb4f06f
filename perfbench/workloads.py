"""The five workloads: set-up, one timed repeat, and the verify pass.

Every workload is closed-loop and offline: the program is handed the whole
generated input and runs as fast as it can; arrival stamps live on the
trace clock.  ``--seed`` draws the *traffic* (flows, arrivals, churn
schedule, packet samples).  The classifiers themselves — ruleset seeds,
tree algorithm, the trainer's hyper-parameters and policy seed — are pinned
per workload, so the paper's two objectives and the engine footprint are
constants a later change must reproduce exactly.

The timed section of each workload is a fixed sequence of calls into the
program's public API (slices of the trace through ``serve()``, batches
through ``match_indices``, iterations of ``train()``), each timed on its
own and all inside one root span, so a traced repeat decomposes it.  Call
``i`` does the same work in every repeat of a run, which is what lets the
runner take each call at the fastest it ever ran (see ``run.py``).
"""

from __future__ import annotations

import pickle
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import default_baselines
from repro.classbench import generate_classifier
from repro.classbench.traces import generate_trace
from repro.engine.compile import compile_classifier
from repro.engine.layout import packets_to_array
from repro.harness.scales import TINY
from repro.harness.serving import ServingResult
from repro.ingest.admission import IngestConfig
from repro.neurocuts import NeuroCutsTrainer
from repro.rules.packet import Packet
from repro.serve.batcher import BatchPolicy
from repro.serve.registry import TenantRegistry
from repro.serve.service import ClassificationService
from repro.workloads.adversarial import FlashCrowdConfig, \
    build_flash_crowd_workload
from repro.workloads.scenario import ChurnConfig, build_workload, \
    make_tenant_specs
from repro.workloads.traffic import FlowTraceConfig

from perfbench.tracing import Tracer

#: Seed of every generated ruleset and of the trainer's policy.  Not
#: ``--seed``: the classifiers are part of the workload's definition.
RULESET_SEED = 1000
POLICY = BatchPolicy(max_batch=64, max_delay=1e-3)
FLOW_CACHE = 2048
BINTH = 8
#: Packets checked against linear search in each verify pass.
VERIFY_PACKETS = 2000
#: Rows per ``match_indices`` call in ``engine_scan``.
SCAN_BATCH = 4096
#: Independent ``generate_trace`` draws shuffled into each ``engine_scan`` trace.
MIXES = 8


def span(tracer: Optional[Tracer], name: str, size: int = 0):
    """A benchmark-side span, or nothing when the run is untraced."""
    return tracer.span(name, size) if tracer else nullcontext()


def recording(tracer: Optional[Tracer], repeat: int):
    """The tracer's wrappers for one repeat, or nothing when untraced."""
    return tracer.record(repeat) if tracer else nullcontext()


@dataclass
class Repeat:
    """What one pass through a workload's timed section produced.

    Every array is index-aligned across the repeats of a run: entry ``i``
    is the time of the same piece of work each time.
    """

    pieces: np.ndarray  #: seconds spent in each timed call, in order
    items: int  #: packets served / looked up, or environment steps
    latencies_ms: np.ndarray  #: per request, per batch, or per iteration
    builds_ms: np.ndarray  #: per engine made ready (see README)
    #: The program's own report of the pass (ServingReport, TrainingResult).
    report: object = None

    @property
    def wall(self) -> float:
        """Seconds spent in the timed calls of the pass."""
        return float(self.pieces.sum())


@dataclass
class Verdict:
    """Outcome of the verify pass."""

    attempted: int
    failed: int
    detail: Dict[str, int] = field(default_factory=dict)


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _priorities(engine, indices: Sequence[int]) -> List[Optional[int]]:
    return [engine.rules[i].priority if i >= 0 else None for i in indices]


def _linear_mismatches(ruleset, packets, priorities) -> int:
    """Packets whose served priority differs from linear search."""
    wrong = 0
    for packet, priority in zip(packets, priorities):
        expected = ruleset.classify(packet)
        if (expected.priority if expected else None) != priority:
            wrong += 1
    return wrong


def compile_ms(classifiers: Sequence, flow_cache: Optional[int] = None
               ) -> np.ndarray:
    """Milliseconds to compile an engine from each classifier.

    Taken once per repeat, outside the timed section, so its samples span
    the same stretch of wall time as every other timing metric of the run.
    """
    spent = []
    for classifier in classifiers:
        start = time.perf_counter()
        compile_classifier(classifier, flow_cache_size=flow_cache)
        spent.append((time.perf_counter() - start) * 1e3)
    return np.asarray(spent)


def footprint(classifiers: Sequence, engines: Sequence) -> Dict[str, float]:
    """The exact metrics of built trees and their compiled engines."""
    stats = [c.stats() for c in classifiers]
    return {
        "tree_accesses": statistics.fmean(
            s.classification_time for s in stats),
        "tree_bytes_per_rule": statistics.fmean(
            s.bytes_per_rule for s in stats),
        "engine_bytes_per_rule": (sum(e.memory_bytes() for e in engines)
                                  / sum(len(e.rules) for e in engines)),
    }


class Workload:
    """Interface the runner drives; one instance per set-up."""

    name = ""
    #: Name of the root span around the timed section.
    root = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def repeat(self, tracer: Optional[Tracer], repeat_id: int) -> Repeat:
        raise NotImplementedError

    def verify(self) -> Verdict:
        raise NotImplementedError

    def constants(self) -> Dict[str, float]:
        """The exact metrics: the paper's objectives and engine footprint."""
        return dict(self._constants)

    def num_requests(self) -> int:
        """Generated requests (``workloads.requests``); 0 outside serving."""
        return 0


# --------------------------------------------------------------------------- #
# serve_hot / serve_cold / serve_churn
# --------------------------------------------------------------------------- #


class ServeWorkload(Workload):
    """Four tenants served through ``ClassificationService.serve``.

    One pass serves the whole trace on a freshly registered registry (cold
    flow caches, epoch 0), as ``slices`` consecutive ``serve()`` calls on
    that one registry: a stream handed over in segments.  Each call is
    timed on its own; flow caches, epochs and telemetry carry over from
    one call to the next, so the pass does the work of a single call plus
    a batcher flush and a report at every boundary.
    """

    root = "serve.serve"
    num_rules = 150
    algorithm = "HiCuts"
    packets = 40_000
    flows = 800
    zipf_alpha = 1.1
    #: ``serve()`` calls per pass (10-20 ms each at full scale).
    slices = 16
    churn: Optional[ChurnConfig] = None
    flash: Optional[FlashCrowdConfig] = None
    ingest: Optional[IngestConfig] = None

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.specs = make_tenant_specs(
            4, num_rules=self.num_rules, seed=RULESET_SEED,
            algorithm=self.algorithm, binth=BINTH)
        trace = FlowTraceConfig(
            num_packets=_scaled(self.packets, self.scale, 400),
            num_flows=_scaled(self.flows, self.scale, 50),
            zipf_alpha=self.zipf_alpha, seed=self.seed)
        churn = self.churn and replace(
            self.churn,
            num_events=_scaled(self.churn.num_events, self.scale, 4))
        with span(tracer, "workloads.generate"):
            if self.flash is not None:
                self.workload = build_flash_crowd_workload(
                    self.specs, trace, self.flash, churn=churn)
            else:
                self.workload = build_workload(self.specs, trace, churn=churn)
        self.workload.updates = self._served_updates(self.workload.updates)
        self.segments = self._segments()
        self.classifiers = self._build(tracer)
        self._pickled = pickle.dumps(self.classifiers)
        registry = self._register(self.classifiers)
        self._constants = footprint(
            self.classifiers.values(),
            [registry.slot(t).engine() for t in registry.tenants()])

    def _served_updates(self, updates: list) -> list:
        """The update schedule as served (``serve_churn`` rewrites it)."""
        return updates

    def _segments(self) -> List[tuple]:
        """The trace cut into ``slices`` runs of consecutive arrivals, each
        with the rule updates that fall before the next run begins."""
        requests = sorted(self.workload.requests, key=lambda r: r.time)
        updates = sorted(self.workload.updates, key=lambda u: u.time)
        count = min(self.slices, len(requests))
        cuts = [len(requests) * i // count for i in range(count + 1)]
        segments, taken = [], 0
        for lo, hi in zip(cuts, cuts[1:]):
            until = taken
            while until < len(updates) and (
                    hi == len(requests)
                    or updates[until].time < requests[hi].time):
                until += 1
            segments.append((requests[lo:hi], updates[taken:until]))
            taken = until
        return segments

    def _build(self, tracer: Optional[Tracer] = None) -> dict:
        builder = default_baselines(binth=BINTH)[self.algorithm]
        with span(tracer, "baselines.build"):
            return {spec.tenant_id:
                    builder.build(self.workload.rulesets[spec.tenant_id])
                    for spec in self.specs}

    def _register(self, classifiers: dict) -> TenantRegistry:
        """A fresh registry: cold flow caches, every tenant at epoch 0."""
        registry = TenantRegistry(default_flow_cache_size=FLOW_CACHE,
                                  background_swaps=False)
        for tenant_id, classifier in classifiers.items():
            registry.register(tenant_id, classifier=classifier)
        return registry

    def _service(self, **flags):
        # Rule updates patch the trees in place, so a churned repeat needs
        # a copy of its own; without updates the built trees are read-only.
        classifiers = pickle.loads(self._pickled) if self.workload.updates \
            else self.classifiers
        registry = self._register(classifiers)
        return registry, ClassificationService(
            registry, POLICY, ingest=self.ingest, **flags)

    def _serve(self, service: ClassificationService):
        """One pass: every segment through ``serve()``, each call timed.

        Returns the seconds per call and the pass's report: the last
        call's (the registry's telemetry is cumulative) with the
        per-call tallies summed over the calls.
        """
        pieces, reports = [], []
        for requests, updates in self.segments:
            start = time.perf_counter()
            reports.append(service.serve(requests, updates))
            pieces.append(time.perf_counter() - start)
        total = {name: sum(getattr(r, name) for r in reports)
                 for name in ("num_requests", "num_batches", "num_updates",
                              "ingest_offered", "ingest_admitted",
                              "ingest_throttled", "ingest_shed")}
        report = replace(
            reports[-1], **total,
            mean_batch_size=total["num_requests"] / total["num_batches"],
            latencies=None if reports[0].latencies is None else
            np.concatenate([r.latencies for r in reports]),
            batches=None if reports[0].batches is None else
            [b for r in reports for b in r.batches])
        return np.asarray(pieces), report

    def repeat(self, tracer: Optional[Tracer], repeat_id: int) -> Repeat:
        _, service = self._service(record_latencies=True)
        with recording(tracer, repeat_id), span(tracer, self.root):
            pieces, report = self._serve(service)
        if self.workload.updates:
            # Update -> shadow engine ready, as the slots timed each swap.
            builds_ms = np.asarray(report.swap_stats.build_seconds) * 1e3
        else:
            builds_ms = compile_ms(self.classifiers.values(), FLOW_CACHE)
        return Repeat(pieces=pieces, items=report.num_requests,
                      latencies_ms=report.latencies * 1e3,
                      builds_ms=builds_ms, report=report)

    def verify(self) -> Verdict:
        registry, service = self._service(record_batches=True)
        workload = self.workload
        _, report = self._serve(service)
        offered = len(workload.requests)
        served = sum(len(b.requests) for b in report.batches)
        seqs = {r.seq for b in report.batches for r in b.requests}
        refused = report.ingest_throttled + report.ingest_shed
        broken = abs(served - report.num_requests) + (served - len(seqs)) \
            + abs(report.swaps - len(workload.updates)) + report.swap_stalls
        if self.ingest is not None:
            broken += abs(report.ingest_offered - offered) \
                + abs(report.ingest_admitted + refused - offered) \
                + abs(served - report.ingest_admitted)
        else:
            broken += abs(served - offered)
        # Linear search is pure Python: check an evenly strided sample of
        # the served batches, which spans every engine epoch of the run.
        stride = max(1, served // _scaled(VERIFY_PACKETS, self.scale, 200))
        sample = replace(report, batches=report.batches[::stride])
        exact = ServingResult(sample, workload, registry).verify_exactness()
        return Verdict(
            attempted=offered,
            failed=exact.num_mismatches + refused + broken,
            detail={"checked": exact.num_checked,
                    "mismatches": exact.num_mismatches,
                    "post_swap_checked": exact.num_post_swap,
                    "refused": refused, "broken_invariants": broken})

    def num_requests(self) -> int:
        return len(self.workload.requests)


class ServeHot(ServeWorkload):
    """800 Zipf-1.1 flows, 98% flow-cache hits: per-packet Python in
    ``serve()`` is the work and the tree walk is idle."""

    name = "serve_hot"


class ServeCold(ServeWorkload):
    """8,000 near-uniform flows over 10-tree EffiCuts engines, ~23% hits:
    nearly all time is the cache-miss path and the tree walk."""

    name = "serve_cold"
    num_rules = 500
    algorithm = "EffiCuts"
    packets = 4_000
    flows = 8_000
    zipf_alpha = 0.3


class ServeChurn(ServeWorkload):
    """Writes beside reads: admission control and 20 rule updates (tree
    patch, partial recompile, swap, cache invalidation) interleave with
    lookups under a flash crowd."""

    name = "serve_churn"
    packets = 10_000
    slices = 20
    churn = ChurnConfig(num_events=20, adds_per_event=5, removes_per_event=3,
                        window=(0.05, 0.95))
    flash = FlashCrowdConfig(rate_factor=4.0)
    #: Provisioned above the crowd's peak, so admission does its full
    #: per-packet work (buckets, queue, re-stamping) and refuses nothing:
    #: any throttled or shed packet is a failure of the run.
    ingest = IngestConfig(tenant_rate=400_000.0)

    def _served_updates(self, updates: list) -> list:
        """Retire churn-added rules instead of original ones.

        ``generate_churn`` removes rules the tree was *built* with, and the
        builders prune rules a higher-priority rule shadows inside a leaf:
        deleting the shadowing rule through ``IncrementalUpdater`` does not
        bring the pruned ones back, so lookups go wrong (seen on fw1 from
        the 11th update on; see README).  Until that is fixed under
        ``src/``, each event removes the oldest rules an earlier event of
        the same tenant added: same remove path, exact answers.
        """
        live: Dict[str, list] = {}
        served = []
        for update in updates:
            added = live.setdefault(update.tenant_id, [])
            removes = tuple(added[:len(update.removes)])
            del added[:len(removes)]
            added.extend(update.adds)
            served.append(replace(update, removes=removes))
        return served


# --------------------------------------------------------------------------- #
# engine_scan
# --------------------------------------------------------------------------- #


class EngineScan(Workload):
    """``CompiledClassifier.match_indices`` over pre-packed arrays: the
    engine alone, used the opposite way to ``serve_cold`` (4,096-row batches,
    no flow cache, no serving loop)."""

    name = "engine_scan"
    root = "engine_scan.pass"
    #: (family, rules, algorithm, packets).  Twice the packets go through
    #: the single-tree engine; the slowest batches are EffiCuts ones.
    engines = (("acl1", 1000, "HiCuts", 8 * SCAN_BATCH),
               ("fw1", 500, "EffiCuts", 4 * SCAN_BATCH))

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.rulesets, self.classifiers = [], []
        self.compiled, self.values = [], []
        for i, (family, rules, algorithm, packets) in enumerate(self.engines):
            ruleset = generate_classifier(family, rules, seed=RULESET_SEED + i)
            with span(tracer, "baselines.build"):
                classifier = default_baselines(binth=BINTH)[algorithm] \
                    .build(ruleset)
            with span(tracer, "engine.compile"):
                compiled = compile_classifier(classifier)
            with span(tracer, "classbench.generate"):
                # One draw makes a seed-chosen handful of rules hot and the
                # walk's depth follows them (throughput moved 7% from seed
                # to seed); every batch is an even mix of MIXES draws.
                share = _scaled(packets, self.scale, 256) // MIXES
                first = (self.seed * len(self.engines) + i) * MIXES
                trace = [packet for draw in range(MIXES) for packet in
                         generate_trace(ruleset, share, seed=first + draw)]
                random.Random(self.seed).shuffle(trace)
            self.rulesets.append(ruleset)
            self.classifiers.append(classifier)
            self.compiled.append(compiled)
            self.values.append(packets_to_array(trace))
        self._constants = footprint(self.classifiers, self.compiled)

    def _scan(self, batch_seconds: Optional[List[float]] = None):
        results = []
        for compiled, values in zip(self.compiled, self.values):
            found = []
            for lo in range(0, len(values), SCAN_BATCH):
                start = time.perf_counter()
                found.append(compiled.match_indices(values[lo:lo + SCAN_BATCH]))
                if batch_seconds is not None:
                    batch_seconds.append(time.perf_counter() - start)
            results.append(np.concatenate(found))
        return results

    def repeat(self, tracer: Optional[Tracer], repeat_id: int) -> Repeat:
        batch_seconds: List[float] = []
        with recording(tracer, repeat_id), span(tracer, self.root):
            results = self._scan(batch_seconds)
        pieces = np.asarray(batch_seconds)
        return Repeat(pieces=pieces, items=sum(len(r) for r in results),
                      latencies_ms=pieces * 1e3,
                      builds_ms=compile_ms(self.classifiers))

    def verify(self) -> Verdict:
        results = self._scan()
        per_engine = _scaled(VERIFY_PACKETS, self.scale, 200) \
            // len(self.compiled)
        attempted = mismatches = 0
        for ruleset, compiled, values, found in zip(
                self.rulesets, self.compiled, self.values, results):
            stride = max(1, len(values) // per_engine)
            rows = values[::stride]
            mismatches += _linear_mismatches(
                ruleset, (Packet.from_values(tuple(row))
                          for row in rows.tolist()),
                _priorities(compiled, found[::stride]))
            attempted += len(rows)
        return Verdict(attempted, mismatches, {"checked": attempted,
                                               "mismatches": mismatches})


# --------------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------------- #


class Train(Workload):
    """``NeuroCutsTrainer.train()`` on the serial executor: the paper's own
    loop on fw5-200.  Its best tree is bit-reproducible, so a faster rollout
    that changes what is learned is caught."""

    name = "train"
    root = "train.train"
    timesteps = 300

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.ruleset = generate_classifier("fw5", 200, seed=RULESET_SEED)
        self.config = TINY.neurocuts_config(
            max_timesteps_total=_scaled(self.timesteps, self.scale, 60),
            # One rollout, cut off at 50 steps, per PPO batch: six
            # iterations of about 85 ms, short enough to find undisturbed.
            timesteps_per_batch=_scaled(50, self.scale, 20),
            max_timesteps_per_rollout=_scaled(50, self.scale, 20),
            convergence_patience=None, seed=RULESET_SEED)
        self.trainer: Optional[NeuroCutsTrainer] = self._trainer()
        self.trees: List[tuple] = []

    def _trainer(self) -> NeuroCutsTrainer:
        return NeuroCutsTrainer(self.ruleset, self.config,
                                rollout_backend="serial")

    def repeat(self, tracer: Optional[Tracer], repeat_id: int) -> Repeat:
        # Every repeat trains a fresh trainer from the same seed: identical
        # work, and an identical best tree, each time.  ``train(n)`` stops
        # after iteration n, so the loop below is ``train()`` with a clock
        # read between iterations.
        trainer, self.trainer = self.trainer or self._trainer(), None
        seconds: List[float] = []
        with trainer:
            with recording(tracer, repeat_id), span(tracer, self.root):
                while True:
                    start = time.perf_counter()
                    result = trainer.train(len(seconds) + 1)
                    seconds.append(time.perf_counter() - start)
                    if result.timesteps_total >= \
                            self.config.max_timesteps_total \
                            or len(result.history) < len(seconds):
                        break
        best = result.best_classifier()
        self.engine = compile_classifier(best)
        self.trees.append((result.best_time, result.best_space,
                           self.engine.memory_bytes()))
        pieces = np.asarray(seconds)
        return Repeat(pieces=pieces, items=result.timesteps_total,
                      latencies_ms=pieces * 1e3,
                      builds_ms=compile_ms([best]), report=result)

    def verify(self) -> Verdict:
        packets = generate_trace(
            self.ruleset, _scaled(VERIFY_PACKETS, self.scale, 200),
            seed=self.seed)
        found = self.engine.match_indices(packets_to_array(packets))
        mismatches = _linear_mismatches(self.ruleset, packets,
                                        _priorities(self.engine, found))
        # Same seed, same work: every repeat must have learned the same tree.
        drift = len(set(self.trees)) - 1
        return Verdict(len(packets), mismatches + drift,
                       {"checked": len(packets), "mismatches": mismatches,
                        "nondeterministic_repeats": drift})

    def constants(self) -> Dict[str, float]:
        best_time, best_space, engine_bytes = self.trees[-1]
        return {"tree_accesses": best_time,
                "tree_bytes_per_rule": best_space / len(self.ruleset),
                "engine_bytes_per_rule": engine_bytes / len(self.engine.rules)}


WORKLOADS = {cls.name: cls for cls in
             (ServeHot, ServeCold, ServeChurn, EngineScan, Train)}
