"""Per-packet reference walks: the oracles the compiled engine is held to.

Two walks, one packet at a time:

* :func:`tree_walk` / :func:`classify` — the recursive walk of the tree
  model's ``Node`` graph, before any compilation: a partition node consults
  every child and keeps the best match, a cut node descends into the one
  child whose box holds the packet, a leaf scans its rules.  It reports how
  many nodes it visited, so tests can hold observed depth to
  ``stats().classification_time``.
* :func:`match_indices` — one tree at a time over the ``NODE_DTYPE`` /
  ``LEAF_RULE_DTYPE`` record copies a :class:`~repro.engine.layout.FlatTree`
  hands out: no forest column, no lane arithmetic, nothing shared with
  :meth:`repro.engine.layout.Forest.lookup` but the tables' contents.
"""

import numpy as np

from repro.engine import KIND_CUT, KIND_LEAF, NO_MATCH_PRIORITY


def tree_walk(tree, packet):
    """``(best rule or None, nodes visited)`` of one ``DecisionTree``."""
    return _walk_node(tree.root, packet.as_tuple())


def _inside(values, ranges):
    return all(lo <= v < hi for v, (lo, hi) in zip(values, ranges))


def _walk_node(node, values):
    if node.is_leaf:
        for rule in node.rules:  # highest priority first
            if _inside(values, rule.ranges):
                return rule, 1
        return None, 1
    if node.is_partition_node:
        best, visited = None, 1
        for child in node.children:
            match, depth = _walk_node(child, values)
            visited += depth
            if match is not None and (best is None
                                      or match.priority > best.priority):
                best = match
        return best, visited
    for child in node.children:
        if _inside(values, child.ranges):
            match, depth = _walk_node(child, values)
            return match, depth + 1
    return None, 1


def classify(classifier, packet):
    """Best-priority match of :func:`tree_walk` over every tree of a
    ``TreeClassifier`` (the earlier tree wins ties)."""
    best = None
    for tree in classifier.trees:
        match, _ = tree_walk(tree, packet)
        if match is not None and (best is None
                                  or match.priority > best.priority):
            best = match
    return best


def _columns(records):
    """Each field of a record array as a plain Python list."""
    return {name: records[name].tolist() for name in records.dtype.names}


def descend(tree, values):
    """Block-relative leaf node index each packet reaches in ``tree``."""
    node_of = _columns(tree.nodes)
    leaves = np.empty(len(values), dtype=np.int64)
    for i, packet in enumerate(values.tolist()):
        node = steps = 0
        while node_of["kind"][node] != KIND_LEAF:
            if steps > tree.depth + 1:
                raise RuntimeError("flat tree deeper than its recorded depth")
            steps += 1
            v = packet[node_of["dim"][node]]
            if node_of["kind"][node] == KIND_CUT:
                # ``rem`` children of ``base + 1`` values, then ``base`` wide.
                base, rem = node_of["base"][node], node_of["rem"][node]
                offset = v - node_of["lo"][node]
                child = offset // (base + 1)
                if child >= rem:
                    child = rem + (offset - rem * (base + 1)) // base
            else:  # KIND_SPLIT
                child = int(v >= node_of["lo"][node])  # the boundary
            node = node_of["start"][node] + child
        leaves[i] = node
    return leaves


def lookup_rows(tree, values):
    """Block-relative leaf-rule row each packet matches in ``tree`` (-1: none).

    The reached leaf's span is scanned in ``leaf_rules`` order; the first
    row whose box (``hi`` inclusive) contains the packet wins.
    """
    node_of, rule_of = _columns(tree.nodes), _columns(tree.leaf_rules)
    rows = np.full(len(values), -1, dtype=np.int64)
    packets = values.tolist()
    for i, leaf in enumerate(descend(tree, values)):
        start = node_of["start"][leaf]
        for row in range(start, start + node_of["count"][leaf]):
            if all(lo <= v <= hi for lo, v, hi in zip(
                    rule_of["lo"][row], packets[i], rule_of["hi"][row])):
                rows[i] = row
                break
    return rows


def match_indices(compiled, values):
    """Per-packet index into ``compiled.rules`` (-1: none): every subtree
    folded in order, strictly greater priority wins, earlier tree wins ties."""
    best_priority = np.full(len(values), NO_MATCH_PRIORITY, dtype=np.int64)
    best_rule = np.full(len(values), -1, dtype=np.int64)
    for tree in compiled.subtrees:
        rules = tree.leaf_rules
        for i, row in enumerate(lookup_rows(tree, values)):
            if row >= 0 and rules["priority"][row] > best_priority[i]:
                best_priority[i] = rules["priority"][row]
                best_rule[i] = rules["rule_index"][row]
    return best_rule
