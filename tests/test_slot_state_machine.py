"""A model-based test of one tenant's engine slot under rule churn.

A hypothesis state machine drives an ``EngineSlot`` over a
HiCuts, an EffiCuts and a CutSplit tree through every way its trees and
engines change: fresh rules added, built-in and added rules removed, mixed
updates and the adoption of a rebuilt classifier.  After every step the serving engine *and* a cold
compile of the slot's trees must answer as linear search over the epoch's
ruleset, at the corners of every rule touched so far and at random packets,
and the compile counters must account for every engine the slot installed.
The engine carries a flow cache, and one step floods it with traffic that
has no flow locality, so the invariants also meet a cache that probes, one
that is dormant and one that probes again.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines import CutSplitBuilder, EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import compile_classifier
from repro.engine.cache import DORMANT_PACKETS, PROBE_WINDOW
from repro.obs.metrics import MetricsRegistry
from repro.rules import FIELD_RANGES, Packet, Rule, RuleSet
from repro.serve import EngineSlot
from repro.tree.validate import corner_packets

#: Rule shapes new rules are drawn from (re-prioritised above the tenant's).
_POOL = tuple(generate_classifier("fw1", 40, seed=5).rules) \
    + tuple(generate_classifier("acl1", 40, seed=6).rules)
_FIELD_HI = [hi for _, hi in FIELD_RANGES.values()]


class SlotMachine(RuleBasedStateMachine):
    """One slot; subclasses choose the tree builder."""

    builder = HiCutsBuilder(binth=8)
    family = "acl1"

    @initialize(seed=st.integers(min_value=0, max_value=50))
    def build(self, seed):
        ruleset = generate_classifier(self.family, 40, seed=seed)
        self.metrics = MetricsRegistry()
        self.slot = EngineSlot("t0", self.builder.build(ruleset),
                               flow_cache_size=64, metrics=self.metrics)
        self.built = sorted(ruleset.rules, key=lambda r: -r.priority)
        self.added = []
        self.touched = []
        self.next_priority = self.built[0].priority + 1
        self.steps = 0

    def _fresh(self, shape):
        fresh = Rule(ranges=shape.ranges, priority=self.next_priority,
                     name=f"add{self.next_priority}")
        self.next_priority += 1
        return fresh

    def _update(self, adds=(), removes=()):
        self.slot.apply_update(adds=adds, removes=removes)
        self.added = [r for r in self.added if r not in removes] + list(adds)
        self.built = [r for r in self.built if r not in removes]
        self.touched.extend(adds)
        self.touched.extend(removes)

    @rule(shape=st.sampled_from(_POOL))
    def add_fresh(self, shape):
        self._update(adds=[self._fresh(shape)])

    @precondition(lambda self: len(self.built) > 2)
    @rule(pick=st.integers(min_value=0))
    def remove_built_in(self, pick):
        self._update(removes=[self.built[pick % len(self.built)]])

    @precondition(lambda self: self.added)
    @rule(pick=st.integers(min_value=0))
    def remove_added(self, pick):
        self._update(removes=[self.added[pick % len(self.added)]])

    @precondition(lambda self: len(self.built) > 2)
    @rule(shapes=st.lists(st.sampled_from(_POOL), min_size=1, max_size=3),
          pick=st.integers(min_value=0))
    def mixed_update(self, shapes, pick):
        candidates = self.built + self.added
        removes = [candidates[pick % len(candidates)]]
        self._update(adds=[self._fresh(s) for s in shapes], removes=removes)

    @rule()
    def adopt_rebuilt(self):
        self.slot.adopt_classifier(self.builder.build(self.slot.ruleset))

    @rule(seed=st.integers(min_value=0, max_value=2**16))
    def cycle_the_cache(self, seed):
        """Uniform headers through the live engine's cache: one window puts
        it to sleep, ``DORMANT_PACKETS`` wake it, the next batch is probed.
        Every batch answers as linear search over the epoch's ruleset."""
        engine = self.slot.engine()
        cache = engine.flow_cache
        ruleset = self.slot.ruleset_at(self.slot.epoch)
        rng = np.random.default_rng(seed)

        def serve(size):
            values = rng.integers(0, _FIELD_HI, size=(size, 5))
            found = engine.lookup_batch(values)
            assert found.tolist() == engine.match_indices(values).tolist()
            for row, index in list(zip(values.tolist(), found))[:16]:
                expected = ruleset.classify(Packet(*row))
                assert (expected.priority if expected else None) == \
                    (engine.rules[index].priority if index >= 0 else None)

        if cache.dormant:
            serve(cache.dormant)
        assert not cache.dormant
        # The open window may hold earlier probes and hits; the batch that
        # closes it judges all of them, so a second window of misses may
        # be needed.
        for _ in range(2):
            serve(PROBE_WINDOW)
            if cache.dormant:
                break
        assert cache.dormant == DORMANT_PACKETS
        bypassed, probed = cache.stats.bypassed, cache.stats.lookups
        serve(DORMANT_PACKETS)
        assert not cache.dormant
        assert cache.stats.bypassed == bypassed + DORMANT_PACKETS
        serve(32)  # awake: probed again
        assert cache.stats.lookups == probed + 32

    @invariant()
    def answers_as_linear_search(self):
        if not hasattr(self, "slot"):
            return
        self.steps += 1
        slot = self.slot
        engine = slot.engine()
        ruleset = slot.ruleset_at(slot.epoch)
        assert ruleset is slot.ruleset
        packets = list(ruleset.sample_packets(40, seed=self.steps,
                                              rule_bias=0.7))
        if self.touched:
            packets += corner_packets(RuleSet(self.touched,
                                              reassign_priorities=True))
        expected = [m.priority if m else None
                    for m in map(ruleset.classify, packets)]
        for candidate in (engine, compile_classifier(slot.classifier)):
            got = [m.priority if m else None
                   for m in candidate.classify_batch(packets)]
            assert got == expected

    @invariant()
    def every_engine_is_counted(self):
        if not hasattr(self, "slot"):
            return
        counters = self.metrics.counters
        assert counters["engine.compiles_full"].value \
            + counters["engine.compiles_partial"].value \
            == self.slot.swap_stats.swaps + 1  # + the registration compile


_SETTINGS = settings(max_examples=20, stateful_step_count=12, deadline=None)


class EffiCutsSlotMachine(SlotMachine):
    builder = EffiCutsBuilder(binth=8)
    family = "fw1"


class CutSplitSlotMachine(SlotMachine):
    builder = CutSplitBuilder(binth=8)
    family = "ipc1"


TestHiCutsSlot = SlotMachine.TestCase
TestHiCutsSlot.settings = _SETTINGS
TestEffiCutsSlot = EffiCutsSlotMachine.TestCase
TestEffiCutsSlot.settings = _SETTINGS
TestCutSplitSlot = CutSplitSlotMachine.TestCase
TestCutSplitSlot.settings = _SETTINGS
