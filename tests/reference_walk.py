"""Per-packet reference walk: the oracle the fused forest walk is held to.

One packet at a time, one tree at a time, over the ``NODE_DTYPE`` /
``LEAF_RULE_DTYPE`` record copies a :class:`~repro.engine.layout.FlatTree`
hands out — no forest column, no lane arithmetic, nothing shared with
:meth:`repro.engine.layout.Forest.lookup` but the tables' contents.
"""

import numpy as np

from repro.engine import KIND_CUT, KIND_LEAF, NO_MATCH_PRIORITY


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
