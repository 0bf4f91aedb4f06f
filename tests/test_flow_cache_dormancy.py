"""The flow cache's dormancy rule (``repro.engine.cache``).

A cache whose hits over a window of ``PROBE_WINDOW`` probed packets fall
under ``MIN_HIT_SHARE`` stops probing for ``DORMANT_PACKETS`` packets: the
batch path walks them directly and counts them as ``bypassed``.  Answers
must not depend on the state the cache is in, and the benchmark shapes the
cache pays on (``serve_hot``, ``serve_churn``) must never put it to sleep.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import compile_classifier
from repro.engine.cache import DORMANT_PACKETS, MIN_HIT_SHARE, PROBE_WINDOW
from repro.exceptions import InvalidRangeError
from repro.rules import FIELD_RANGES
from repro.serve import EngineSlot

ROOT = Path(__file__).resolve().parents[1]
_HI = np.array([hi for _, hi in FIELD_RANGES.values()], dtype=np.int64)


@pytest.fixture(scope="module")
def classifier():
    return HiCutsBuilder(binth=8).build(generate_classifier("acl1", 60,
                                                            seed=7))


@pytest.fixture
def engine(classifier):
    return compile_classifier(classifier, flow_cache_size=2048)


def uniform(rng, n):
    """``n`` headers drawn uniformly over every field: no flow repeats."""
    return rng.integers(0, _HI, size=(n, len(_HI)))


def serve(engine, values):
    """``lookup_batch``, held to the uncached walk."""
    found = engine.lookup_batch(values)
    np.testing.assert_array_equal(found, engine.match_indices(values))
    return found


def counters(cache):
    return dataclasses.asdict(cache.stats)


def test_uniform_traffic_sleeps_after_one_window_and_probes_again(engine):
    rng = np.random.default_rng(0)
    cache = engine.flow_cache
    serve(engine, uniform(rng, PROBE_WINDOW - 1))
    assert not cache.dormant  # the window is not full yet
    serve(engine, uniform(rng, 1))
    assert cache.dormant == DORMANT_PACKETS
    assert (cache.stats.hits, cache.stats.misses) == (0, PROBE_WINDOW)
    asleep, entries = counters(cache), cache.entries()
    for served in range(64, DORMANT_PACKETS + 1, 64):
        serve(engine, uniform(rng, 64))
        assert cache.stats.bypassed == served
        assert cache.dormant == DORMANT_PACKETS - served
    # Nothing but ``bypassed`` moved, and the entries were kept.
    assert {**counters(cache), "bypassed": 0} == asleep
    assert cache.entries() == entries
    serve(engine, uniform(rng, 64))  # awake: probed and stored again
    assert cache.stats.misses == PROBE_WINDOW + 64
    assert cache.stats.bypassed == DORMANT_PACKETS and not cache.dormant
    serve(engine, uniform(rng, 64))  # a second miss-only window
    assert cache.dormant == DORMANT_PACKETS


def test_a_batch_that_overshoots_the_dormant_span_is_bypassed_whole(engine):
    rng = np.random.default_rng(1)
    cache = engine.flow_cache
    serve(engine, uniform(rng, PROBE_WINDOW))
    serve(engine, uniform(rng, DORMANT_PACKETS + 100))
    assert cache.stats.bypassed == DORMANT_PACKETS + 100
    assert not cache.dormant


def _zipf_flows(rng, flows, packets, alpha):
    """Flow indices drawn from a Zipf(``alpha``) law over ``flows`` flows."""
    weights = 1.0 / np.arange(1, flows + 1) ** alpha
    return rng.choice(flows, size=packets, p=weights / weights.sum())


@pytest.mark.parametrize("seed", range(5))
def test_zipf_traffic_from_a_cold_cache_never_sleeps(engine, seed):
    rng = np.random.default_rng(seed)
    flows = uniform(rng, 800)
    stream = flows[_zipf_flows(rng, 800, 20_000, 1.1)]
    start = 0
    while start < len(stream):
        size = int(rng.integers(1, 65))
        serve(engine, stream[start:start + size])
        assert not engine.flow_cache.dormant
        start += size
    stats = engine.flow_cache.stats
    assert stats.bypassed == 0 and stats.hit_rate > 0.5


def test_clear_restarts_the_window(engine):
    rng = np.random.default_rng(2)
    cache = engine.flow_cache
    serve(engine, uniform(rng, PROBE_WINDOW))
    assert cache.dormant
    cache.clear()
    assert not cache.dormant  # woken, and the next window starts empty
    serve(engine, uniform(rng, PROBE_WINDOW - 1))
    assert not cache.dormant
    cache.clear()  # mid-window: the 127 probes are forgotten
    serve(engine, uniform(rng, PROBE_WINDOW - 1))
    assert not cache.dormant
    serve(engine, uniform(rng, 1))
    assert cache.dormant == DORMANT_PACKETS


def test_a_refused_batch_changes_neither_the_window_nor_a_counter(engine):
    rng = np.random.default_rng(3)
    cache = engine.flow_cache
    bad = uniform(rng, 40)
    bad[7, 4] = 256  # protocol out of range
    serve(engine, uniform(rng, PROBE_WINDOW - 1))
    before, entries = counters(cache), cache.entries()
    with pytest.raises(InvalidRangeError):
        engine.lookup_batch(bad)
    assert counters(cache) == before and cache.entries() == entries
    serve(engine, uniform(rng, 1))  # the refused batch filled no window
    assert cache.dormant == DORMANT_PACKETS
    before = counters(cache)
    with pytest.raises(InvalidRangeError):
        engine.lookup_batch(bad)
    assert counters(cache) == before
    assert cache.dormant == DORMANT_PACKETS


def test_answers_equal_the_walk_in_every_state(engine):
    """A stream that hits, sleeps, wakes and hits again: every batch's
    answers are the uncached walk's, whatever the cache did with it."""
    rng = np.random.default_rng(4)
    cache = engine.flow_cache
    hot = uniform(rng, 50)
    seen = set()
    for step in range(400):
        if step % 100 < 40:
            batch = uniform(rng, int(rng.integers(1, 65)))
        else:
            batch = hot[rng.integers(0, len(hot), size=int(rng.integers(1,
                                                                       65)))]
        before = cache.dormant
        serve(engine, batch)
        seen.add("dormant" if before else
                 "asleep after" if cache.dormant else "probing")
    assert seen == {"probing", "asleep after", "dormant"}
    assert cache.stats.bypassed > 0 and cache.stats.hits > 0


@pytest.mark.parametrize("hits", [18, 19, 20, 21])
def test_a_window_sleeps_only_under_the_hit_share(engine, hits):
    rng = np.random.default_rng(5)
    cache = engine.flow_cache
    warm = uniform(rng, hits)
    serve(engine, warm)  # misses
    serve(engine, uniform(rng, PROBE_WINDOW - 2 * hits))
    serve(engine, warm)  # hits: the window closes at exactly 128 probes
    assert (cache.stats.hits, cache.stats.misses) == \
        (hits, PROBE_WINDOW - hits)
    assert bool(cache.dormant) == (hits < MIN_HIT_SHARE * PROBE_WINDOW)


def test_a_slot_keeps_every_retired_engines_cache_counter():
    """A swap retires the engine's cache counters into the slot, bypassed
    packets included; the slot's total is retired plus live."""
    rng = np.random.default_rng(6)
    ruleset = generate_classifier("acl1", 40, seed=8)
    slot = EngineSlot("t0", HiCutsBuilder(binth=8).build(ruleset),
                      flow_cache_size=512, background=False)
    serve(slot.engine(), uniform(rng, PROBE_WINDOW))
    serve(slot.engine(), uniform(rng, 300))  # bypassed
    slot.apply_update(removes=[ruleset.rules[0]])
    engine = slot.engine()
    serve(engine, uniform(rng, PROBE_WINDOW))
    serve(engine, uniform(rng, 200))
    assert engine.flow_cache.dormant
    assert slot.retired_cache_stats.bypassed == 300
    total = slot.cache_stats()
    assert total.bypassed == 500 and total.invalidations > 0
    live = engine.flow_cache.stats
    for name, value in dataclasses.asdict(total).items():
        assert value == getattr(slot.retired_cache_stats, name) \
            + getattr(live, name), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_shapes_the_cache_pays_on_never_sleep(seed, monkeypatch):
    """``serve_hot`` and ``serve_churn`` at full scale make no dormant
    lookup; ``serve_cold`` (the control) sleeps in every tenant."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS

    for name in ("serve_hot", "serve_churn", "serve_cold"):
        workload = WORKLOADS[name](seed)
        workload.setup(None)
        _, service = workload._service()
        _, report = workload._serve(service)
        bypassed = [entry["cache"]["bypassed"]
                    for entry in report.per_tenant.values()]
        assert report.cache_bypassed == sum(bypassed)
        if name == "serve_cold":
            assert all(bypassed), bypassed
        else:
            assert report.cache_bypassed == 0, (name, bypassed)
