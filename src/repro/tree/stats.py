"""Classification-time and memory-footprint statistics.

These are the two objectives NeuroCuts optimises (Section 4.2, Eqs. 1–4):

* classification time ``T_n`` of a subtree — for a cut node, the node's own
  cost plus the **max** over its children; for a partition node, the node's
  own cost plus the **sum** over its children (every partition tree must be
  queried).
* memory footprint ``S_n`` — the node's own bytes plus the **sum** over its
  children for both action kinds.

The memory model charges a fixed header per node, a pointer per child, and a
pointer per rule stored in a leaf.  The exact constants matter less than
their being applied uniformly across every algorithm; the figure benchmarks
compare algorithms under the identical model, like the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.obs.serialize import stable_dict
from repro.tree.node import Node
from repro.tree.tree import DecisionTree

#: Bytes charged for a node's fixed header (ranges, action descriptor).
NODE_HEADER_BYTES = 16
#: Bytes charged per child pointer at an internal node.
CHILD_POINTER_BYTES = 4
#: Bytes charged per rule reference stored in a leaf.
RULE_POINTER_BYTES = 16
#: Per-node traversal cost in "memory accesses" (the time unit).
NODE_ACCESS_COST = 1


@dataclass(frozen=True)
class TreeStats:
    """Aggregate statistics of one decision tree.

    Attributes:
        classification_time: worst-case accesses to classify a packet
            (Eq. 1/3 evaluated at the root).
        memory_bytes: total bytes of the tree under the memory model.
        bytes_per_rule: memory bytes divided by the number of classifier rules.
        num_nodes: total node count.
        num_leaves: leaf count.
        depth: maximum leaf depth.
        max_leaf_rules: largest rule count in any leaf.
        rule_replication: total rule references in leaves divided by the
            number of distinct rules (1.0 means no replication).
    """

    classification_time: int
    memory_bytes: int
    bytes_per_rule: float
    num_nodes: int
    num_leaves: int
    depth: int
    max_leaf_rules: int
    rule_replication: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for tabulation (stable keys, JSON-native values)."""
        return stable_dict({
            "classification_time": self.classification_time,
            "memory_bytes": self.memory_bytes,
            "bytes_per_rule": self.bytes_per_rule,
            "num_nodes": self.num_nodes,
            "num_leaves": self.num_leaves,
            "depth": self.depth,
            "max_leaf_rules": self.max_leaf_rules,
            "rule_replication": self.rule_replication,
        })


def node_time_cost(node: Node) -> int:
    """Per-node traversal cost (``t_n`` in the paper)."""
    return NODE_ACCESS_COST


def node_space_cost(node: Node) -> int:
    """Per-node memory cost (``s_n`` in the paper)."""
    cost = NODE_HEADER_BYTES + CHILD_POINTER_BYTES * node.num_children
    if node.is_leaf:
        cost += RULE_POINTER_BYTES * node.num_rules
    return cost


def subtree_costs(root: Node) -> Dict[int, Tuple[int, int]]:
    """``(time, space)`` of the subtree under every node below ``root``,
    keyed by ``node_id``, from one post-order pass.

    Time follows Eq. 1 (cut: the node's cost plus the max over children)
    and Eq. 3 (partition: plus the sum over children); space follows
    Eq. 2/4 (the node's bytes plus the sum over children).  Iterative, so
    deep trees do not hit the recursion limit.

    Builds no node: the leaves of a cut's block that were never read as
    nodes (:meth:`~repro.tree.node.Node.child_parts`) are priced together
    from their rule counts, ``NODE_ACCESS_COST`` and ``NODE_HEADER_BYTES +
    RULE_POINTER_BYTES * count`` each, and have no entry of their own.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        parts = node.child_parts()
        order.append((node, parts))
        stack.extend(parts[0])
    costs: Dict[int, Tuple[int, int]] = {}
    # Reversed pre-order visits every child before its parent.
    for node, (built, sizes) in reversed(order):
        time, space = node_time_cost(node), node_space_cost(node)
        if not node.is_leaf:
            below = [costs[child.node_id] for child in built]
            child_times = [t for t, _ in below]
            space += sum(s for _, s in below)
            if sizes:
                child_times += [NODE_ACCESS_COST] * len(sizes)
                space += (NODE_HEADER_BYTES * len(sizes)
                          + RULE_POINTER_BYTES * sum(sizes))
            time += sum(child_times) if node.is_partition_node \
                else max(child_times)
        costs[node.node_id] = (time, space)
    return costs


def subtree_time(node: Node) -> int:
    """Worst-case classification time of the subtree rooted at ``node``."""
    return subtree_costs(node)[node.node_id][0]


def subtree_space(node: Node) -> int:
    """Memory footprint in bytes of the subtree rooted at ``node``."""
    return subtree_costs(node)[node.node_id][1]


def compute_stats(tree: DecisionTree) -> TreeStats:
    """Compute the full statistics bundle for one tree."""
    time, space = subtree_costs(tree.root)[tree.root.node_id]
    num_rules = len(tree.ruleset)
    leaf_rule_refs = sum(leaf.num_rules for leaf in tree.leaves())
    distinct_rules = max(1, len(tree.root.rules))
    return TreeStats(
        classification_time=time,
        memory_bytes=space,
        bytes_per_rule=space / max(1, num_rules),
        num_nodes=tree.num_nodes(),
        num_leaves=tree.num_leaves(),
        depth=tree.depth(),
        max_leaf_rules=tree.max_leaf_rules(),
        rule_replication=leaf_rule_refs / distinct_rules,
    )
