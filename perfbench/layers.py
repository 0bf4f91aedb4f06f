"""Per-layer metrics of one traced repeat.

Layer = module name under ``src/repro``.  ``_s`` metrics are *self* time
(the layer's spans minus what their child spans cover) unless the README
marks them inclusive; counts are taken at the same span boundaries or read
from the report the program returned for that repeat.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from perfbench.tracing import LayerTotals
from perfbench.workloads import Repeat

_ZERO = LayerTotals(0, 0.0, 0.0, 0)
_BATCHER = ("serve.batcher.offer", "serve.batcher.poll",
            "serve.batcher.flush", "serve.batcher.flush_all")


def layer_metrics(setup: Dict[str, LayerTotals],
                  run: Dict[str, LayerTotals],
                  lookup_seconds: Sequence[float],
                  repeat: Repeat, root: str, requests: int,
                  untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric, keyed by its ``BENCHMARK.json`` name.

    ``setup`` and ``run`` are the span totals of the set-up phase and of
    the traced repeat; ``lookup_seconds`` the repeat's per-``lookup_batch``
    durations; ``untraced_wall`` the median untraced wall of the same
    timed section in the same interpreter.
    """
    def s(name: str) -> LayerTotals:
        return setup.get(name, _ZERO)

    def r(name: str) -> LayerTotals:
        return run.get(name, _ZERO)

    def reported(attr: str) -> float:
        """A field of the program's own report of the repeat; 0 if absent."""
        return getattr(repeat.report, attr, 0)

    registry = reported("metrics")
    lookups = np.asarray(lookup_seconds) * 1e3
    return {
        "workloads.generate_s": s("workloads.generate").total,
        "workloads.requests": requests,
        "baselines.build_s": s("baselines.build").total,
        "engine.compile_s": s("engine.compile").own + r("engine.compile").own,
        "engine.compile_calls":
            s("engine.compile").calls + r("engine.compile").calls,
        "engine.partial_compile_s": r("engine.partial_compile").own,
        "engine.partial_compile_calls": r("engine.partial_compile").calls,
        "engine.pack_s": r("engine.pack").own,
        "engine.pack_calls": r("engine.pack").calls,
        "engine.lookup_s": r("engine.lookup_batch").total,
        "engine.lookup_calls": r("engine.lookup_batch").calls,
        "engine.walk_s": r("engine.match_indices").own,
        "engine.walk_packets": r("engine.match_indices").size,
        "engine.cache_s": r("engine.lookup_batch").own,
        "engine.cache_hit_rate": reported("cache_hit_rate"),
        "engine.cache_evictions": reported("cache_evictions"),
        "engine.batch_p50_ms":
            float(np.percentile(lookups, 50)) if lookups.size else 0.0,
        "engine.batch_p99_ms":
            float(np.percentile(lookups, 99)) if lookups.size else 0.0,
        "ingest.admit_s": r("ingest.admit").own,
        "ingest.offered": reported("ingest_offered"),
        "ingest.admitted": reported("ingest_admitted"),
        "ingest.throttled": reported("ingest_throttled"),
        "ingest.shed": reported("ingest_shed"),
        "serve.batcher_s": sum(r(name).own for name in _BATCHER),
        "serve.batcher_calls": sum(r(name).calls for name in _BATCHER),
        "serve.batches": reported("num_batches"),
        "serve.mean_batch": reported("mean_batch_size"),
        "serve.session_self_s": r("serve.session.offer").own,
        "serve.offer_calls": r("serve.session.offer").calls,
        "serve.finish_s": r("serve.session.finish").own,
        "serve.update_s": r("serve.registry.apply_update").total,
        "serve.update_self_s": r("serve.registry.apply_update").own,
        "serve.updates": reported("num_updates"),
        "serve.swaps": reported("swaps"),
        "serve.swap_stalls": reported("swap_stalls"),
        # The root span's self time: wall minus every traced layer.
        "serve.unattributed_s": r("serve.serve").own,
        "obs.samples": sum(len(t.samples) for t in registry.timings.values())
        if registry else 0,
        "neurocuts.collect_s": r("neurocuts.collect_batch").own,
        "neurocuts.collect_calls": r("neurocuts.collect_batch").calls,
        "neurocuts.rollout_s": r("neurocuts.rollout").total,
        "neurocuts.rollouts": r("neurocuts.rollout").calls,
        "neurocuts.steps": reported("timesteps_total"),
        "neurocuts.encode_s": r("neurocuts.encode").own,
        "neurocuts.mask_s": r("neurocuts.masks").own,
        "neurocuts.reward_s": r("neurocuts.reward").own,
        "tree.apply_s": r("tree.apply_action").own,
        "tree.apply_calls": r("tree.apply_action").calls,
        "rl.act_s": r("rl.act").own,
        "rl.act_calls": r("rl.act").calls,
        "rl.update_s": r("rl.update").own,
        "rl.update_calls": r("rl.update").calls,
        "trace.overhead_share": r(root).total / untraced_wall - 1.0,
    }
