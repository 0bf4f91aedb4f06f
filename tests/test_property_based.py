"""Property-based tests (hypothesis) on the core data structures.

These check the invariants everything else relies on: rules match exactly the
packets inside their hypercube, cuts tile a node's box without losing rules,
trees classify identically to linear search for arbitrary rule sets, and the
distribution gradients stay consistent with their probabilities.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference_walk
from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
)
from repro.classbench import generate_classifier, seed_names
from repro.engine import compile_classifier, packets_to_array
from repro.neurocuts import SIMPLE_PARTITION_THRESHOLDS
from repro.rules import DIMENSIONS, FIELD_RANGES, Packet, Rule, RuleSet
from repro.rules.fields import Dimension, prefix_to_range
from repro.tree import (
    CUT_SIZES,
    CutAction,
    DecisionTree,
    Node,
    PartitionAction,
    TreeClassifier,
    build_with_policy,
)
from repro.tree.node import remove_redundant_rules
from repro.nn.distributions import Categorical
from repro.serve import EngineSlot
from repro.workloads import generate_flow_trace

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@st.composite
def ranges_for_dim(draw, dim: Dimension):
    """A random non-empty half-open range within a dimension's bounds."""
    lo_bound, hi_bound = FIELD_RANGES[dim]
    lo = draw(st.integers(min_value=lo_bound, max_value=hi_bound - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=hi_bound))
    return (lo, hi)


@st.composite
def rules(draw, priority=0):
    """A random rule with arbitrary (not necessarily prefix) ranges."""
    rule_ranges = tuple(draw(ranges_for_dim(dim)) for dim in DIMENSIONS)
    return Rule(ranges=rule_ranges, priority=priority)


@st.composite
def rulesets(draw, min_rules=2, max_rules=12):
    """A random classifier terminated by a default rule."""
    count = draw(st.integers(min_value=min_rules, max_value=max_rules))
    rule_list = [draw(rules(priority=count - i)) for i in range(count - 1)]
    rule_list.append(Rule.wildcard(priority=0))
    return RuleSet(rule_list, name="hypothesis", reassign_priorities=True)


@st.composite
def packets(draw):
    values = tuple(
        draw(st.integers(min_value=FIELD_RANGES[d][0],
                         max_value=FIELD_RANGES[d][1] - 1))
        for d in DIMENSIONS
    )
    return Packet.from_values(values)


# --------------------------------------------------------------------------- #
# Rule properties
# --------------------------------------------------------------------------- #


@given(rule=rules(), packet=packets())
@settings(max_examples=200, deadline=None)
def test_rule_matches_iff_packet_inside_every_range(rule, packet):
    inside = all(lo <= v < hi for v, (lo, hi) in zip(packet, rule.ranges))
    assert rule.matches(packet) == inside


@given(rule=rules())
@settings(max_examples=100, deadline=None)
def test_rule_clip_to_own_box_is_identity(rule):
    clipped = rule.clip_to(rule.ranges)
    assert clipped is not None
    assert clipped.ranges == rule.ranges


@given(rule=rules())
@settings(max_examples=100, deadline=None)
def test_coverage_fraction_bounds(rule):
    for dim in DIMENSIONS:
        fraction = rule.coverage_fraction(dim)
        assert 0.0 < fraction <= 1.0
        assert rule.is_wildcard(dim) == (fraction == 1.0)


@given(value=st.integers(min_value=0, max_value=(1 << 32) - 1),
       prefix_len=st.integers(min_value=0, max_value=32))
@settings(max_examples=200, deadline=None)
def test_prefix_range_contains_exactly_prefix_matches(value, prefix_len):
    lo, hi = prefix_to_range(value, prefix_len, bits=32)
    assert hi - lo == 1 << (32 - prefix_len)
    if prefix_len > 0:
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        assert lo == value & mask
    assert lo <= value < hi or prefix_len == 0


# --------------------------------------------------------------------------- #
# Ruleset / classification properties
# --------------------------------------------------------------------------- #


@given(ruleset=rulesets(), packet=packets())
@settings(max_examples=100, deadline=None)
def test_classify_returns_highest_priority_match(ruleset, packet):
    match = ruleset.classify(packet)
    assert match is not None  # default rule guarantees a match
    better = [r for r in ruleset if r.matches(packet) and r.priority > match.priority]
    assert not better


@given(ruleset=rulesets())
@settings(max_examples=30, deadline=None)
def test_tree_agrees_with_linear_search(ruleset):
    # Keep the tree small: heavily overlapping random rules cannot be
    # separated below the leaf threshold, so depth/action caps are what stop
    # construction (a truncated tree is still an exact classifier).
    tree = build_with_policy(
        ruleset,
        lambda node: CutAction(Dimension.SRC_IP, 4),
        leaf_threshold=4,
        max_depth=5,
        max_actions=300,
    )
    packets = ruleset.sample_packets(20, seed=0)
    compiled = TreeClassifier(ruleset, [tree]).compile().classify_batch(packets)
    for packet, got in zip(packets, compiled):
        expected = ruleset.classify(packet)
        walked, _ = reference_walk.tree_walk(tree, packet)
        assert (walked.priority if walked else None) == \
            (got.priority if got else None) == \
            (expected.priority if expected else None)


# --------------------------------------------------------------------------- #
# Engine differential properties on generated workloads
# --------------------------------------------------------------------------- #


def _root_partition(ruleset):
    """A tree of the shape NeuroCuts' ``partition_mode="simple"`` emits: one
    coverage partition at the root (the first dimension and threshold that
    separates the rules, as the action mask allows), then cuts."""

    def policy(node):
        if node.depth == 0:
            for threshold in SIMPLE_PARTITION_THRESHOLDS:
                for dim in DIMENSIONS:
                    large = sum(rule.coverage_fraction(dim) > threshold
                                for rule in node.rules)
                    if 0 < large < node.num_rules:
                        return PartitionAction(dim, threshold)
        return CutAction(Dimension(node.depth % len(DIMENSIONS)), 4)

    tree = build_with_policy(ruleset, policy, leaf_threshold=8, max_depth=6,
                             max_actions=300)
    return TreeClassifier(ruleset, [tree], name="root-partition")


_WORKLOAD_BUILDERS = {
    "HiCuts": HiCutsBuilder(binth=8).build,
    "EffiCuts": EffiCutsBuilder(binth=8).build,
    "root-partition": _root_partition,
}


@given(family=st.sampled_from(sorted(seed_names())),
       num_rules=st.integers(min_value=16, max_value=60),
       seed=st.integers(min_value=0, max_value=10 ** 4),
       builder=st.sampled_from(sorted(_WORKLOAD_BUILDERS)))
@settings(max_examples=15, deadline=None)
def test_generated_workloads_classify_identically_everywhere(
        family, num_rules, seed, builder):
    """The recursive test walk, the compiled engine and linear search agree
    packet-for-packet on any generated (family, size, seed) workload — the
    exactness invariant the serving layer is built on."""
    ruleset = generate_classifier(family, num_rules, seed=seed)
    classifier = _WORKLOAD_BUILDERS[builder](ruleset)
    packets = [entry.packet for entry in
               generate_flow_trace(ruleset, num_packets=96, num_flows=24,
                                   seed=seed)]
    linear = [ruleset.classify(p) for p in packets]
    interpreted = [reference_walk.classify(classifier, p) for p in packets]
    compiled = classifier.compile().classify_batch(packets)

    def priorities(matches):
        return [m.priority if m else None for m in matches]

    assert priorities(interpreted) == priorities(linear)
    assert priorities(compiled) == priorities(linear)

    # The per-packet reference walk returns byte-identical match indices.
    engine = classifier.compile()
    values = packets_to_array(packets)
    assert (reference_walk.match_indices(engine, values)
            == engine.match_indices(values)).all()


def _partition_below_cut(ruleset):
    """A NeuroCuts-style tree whose partition sits *below* a cut, so the
    engine's partition expansion has to clone the path above it."""

    def policy(node):
        if node.depth == 0:
            return CutAction(Dimension.SRC_IP, 2)
        if node.depth == 1:
            return PartitionAction(Dimension.DST_IP, 0.5)
        return CutAction(Dimension(node.depth % len(DIMENSIONS)), 4)

    tree = build_with_policy(ruleset, policy, leaf_threshold=4, max_depth=5,
                             max_actions=200)
    return TreeClassifier(ruleset, [tree], name="partition-below-cut")


_WALK_BUILDERS = {
    "HiCuts": HiCutsBuilder(binth=8).build,
    "HyperCuts": HyperCutsBuilder(binth=8).build,
    "EffiCuts": EffiCutsBuilder(binth=8).build,
    "CutSplit": CutSplitBuilder(binth=8).build,
    "partition-below-cut": _partition_below_cut,
}


def _churned(classifier, seed):
    """The engine and ruleset of ``classifier`` after three rule updates
    served the way a tenant's are: new rules appended to the engine's rule
    list and table by partial recompiles, a removal of the top-priority rule
    (whatever it shadowed at build time comes back) and of a random one, and
    an added rule leaving again."""
    slot = EngineSlot("t0", classifier, flow_cache_size=None,
                      background=False)
    built = sorted(classifier.ruleset.rules, key=lambda r: -r.priority)
    fresh = [Rule.from_prefixes(src_ip=f"10.{i}.0.0/16", dst_port=(0, 1024),
                                priority=built[0].priority + 1 + i,
                                name=f"new{i}") for i in range(4)]
    slot.apply_update(adds=fresh[:3])
    slot.apply_update(
        removes=[built[0], random.Random(seed).choice(built[1:])])
    slot.apply_update(adds=fresh[3:], removes=fresh[1:2])
    engine = slot.engine()
    assert slot.swap_stats.swaps == 3
    assert len(engine.forest.table["priority"]) == len(engine.rules)
    return engine, slot.ruleset


@given(family=st.sampled_from(sorted(seed_names())),
       num_rules=st.integers(min_value=16, max_value=60),
       seed=st.integers(min_value=0, max_value=10 ** 4),
       builder=st.sampled_from(sorted(_WALK_BUILDERS)),
       batch=st.sampled_from([0, 1, 2, 33, 4097]),
       churned=st.booleans())
# Removing the top rule brings back a rule it shadowed above a partition,
# into the partition child the removed rule is not in.
@example(family="ipc1", num_rules=16, seed=1440,
         builder="partition-below-cut", batch=33, churned=True)
@settings(max_examples=60, deadline=None)
def test_fused_walk_equals_kernels_equals_linear_search(
        family, num_rules, seed, builder, batch, churned):
    """One forest walk over ``trees x packets`` lanes returns, byte for byte,
    what the per-packet per-tree reference walk returns, and both name the
    rule linear search finds — for cut-only, split-carrying and clone-expanded
    engines, fresh from the compiler or patched by partial recompiles, at
    batch sizes on both sides of the walk's lane chunking."""
    ruleset = generate_classifier(family, num_rules, seed=seed)
    classifier = _WALK_BUILDERS[builder](ruleset)
    if churned:
        engine, ruleset = _churned(classifier, seed)
    else:
        engine = compile_classifier(classifier)
    distinct = ruleset.sample_packets(min(batch, 48), seed=seed,
                                      rule_bias=0.7)
    values = packets_to_array(distinct)
    if batch:
        values = np.resize(values, (batch, values.shape[1]))
    fused = engine.match_indices(values)
    assert fused.dtype == np.int64 and fused.shape == (batch,)
    kernel_result = reference_walk.match_indices(engine, values)
    assert fused.tobytes() == kernel_result.tobytes()
    linear = [ruleset.classify(p) for p in distinct]
    got = [engine.rules[i].priority if i >= 0 else None
           for i in fused[:len(distinct)].tolist()]
    assert got == [m.priority if m else None for m in linear]


def test_walk_builders_cover_splits_and_clones():
    """The properties above mean what they say only if their builders really
    produce split rows, a clone-producing expansion and a root partition."""
    ruleset = generate_classifier("fw1", 60, seed=1)
    cutsplit = compile_classifier(_WALK_BUILDERS["CutSplit"](ruleset))
    assert cutsplit.forest.has_split
    cloned = compile_classifier(_WALK_BUILDERS["partition-below-cut"](ruleset))
    assert cloned.num_subtrees > 1
    # Clones share the leaves below them: some leaf owns several rows.
    assert any(len(rows) > 1
               for _, rows in cloned.provenance.rows_of(cloned).values())
    assert not compile_classifier(
        _WALK_BUILDERS["EffiCuts"](ruleset)).forest.has_split
    # The three-way workload property's partitioned input is partitioned.
    assert _root_partition(ruleset).trees[0].root.is_partition_node


# --------------------------------------------------------------------------- #
# Node / cut properties
# --------------------------------------------------------------------------- #


@given(ruleset=rulesets(),
       dim=st.sampled_from(list(Dimension)),
       num_cuts=st.sampled_from(CUT_SIZES))
@settings(max_examples=60, deadline=None)
def test_cut_children_tile_the_parent_range(ruleset, dim, num_cuts):
    node = Node(ranges=tuple(FIELD_RANGES[d] for d in DIMENSIONS),
                rules=list(ruleset.rules))
    children = node.apply(CutAction(dim, num_cuts))
    child_ranges = [child.range_for(dim) for child in children]
    assert child_ranges[0][0] == FIELD_RANGES[dim][0]
    assert child_ranges[-1][1] == FIELD_RANGES[dim][1]
    for (_, prev_hi), (next_lo, _) in zip(child_ranges, child_ranges[1:]):
        assert prev_hi == next_lo
    # No rule that intersects the parent vanishes from every child it overlaps,
    # unless it is redundant there (covered by a higher-priority rule).
    for rule in node.rules:
        holders = [c for c in children if rule in c.rules]
        if not holders:
            intersecting = [c for c in children if rule.intersects(c.ranges)]
            for child in intersecting:
                clipped = rule.clip_to(child.ranges)
                assert any(
                    other.priority > rule.priority
                    and other.clip_to(child.ranges) is not None
                    and other.clip_to(child.ranges).covers(clipped)
                    for other in child.rules
                )


@given(ruleset=rulesets())
@settings(max_examples=60, deadline=None)
def test_redundant_rule_removal_preserves_classification(ruleset):
    box = tuple(FIELD_RANGES[d] for d in DIMENSIONS)
    pruned = remove_redundant_rules(list(ruleset.rules), box)
    pruned_set = RuleSet(pruned, name="pruned") if pruned else None
    assert pruned_set is not None
    for packet in ruleset.sample_packets(10, seed=1):
        full = ruleset.classify(packet)
        reduced = pruned_set.classify(packet)
        assert (reduced.priority if reduced else None) == \
            (full.priority if full else None)


# --------------------------------------------------------------------------- #
# Distribution properties
# --------------------------------------------------------------------------- #


@given(logits=st.lists(st.floats(min_value=-5, max_value=5),
                       min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_categorical_probabilities_normalised(logits):
    dist = Categorical(np.array([logits]))
    assert np.isclose(dist.probs.sum(), 1.0)
    assert dist.entropy()[0] >= -1e-9
    assert dist.entropy()[0] <= np.log(len(logits)) + 1e-9


@given(logits=st.lists(st.floats(min_value=-5, max_value=5),
                       min_size=2, max_size=6),
       action_seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_categorical_logprob_grad_sums_to_zero(logits, action_seed):
    dist = Categorical(np.array([logits]))
    action = np.array([action_seed % len(logits)])
    grad = dist.log_prob_grad(action)
    # d/dz sum over a softmax's log-prob gradient is always zero.
    assert np.isclose(grad.sum(), 0.0, atol=1e-9)
