"""List-scan rule edits: the oracle the priority-bisect edits are held to.

The node and ruleset edits written the plain way — membership by scanning
the whole list, placement by appending and stable-sorting, the removed
rule's place in the root by ``list.index``, coverers from a hashed set, and
one ruleset copy per rule.  :class:`ReferenceUpdater` inherits only the
routing (which nodes a rule reaches) from
:class:`~repro.neurocuts.updates.IncrementalUpdater`; every edit it makes
goes through the functions below.
"""

from repro.neurocuts.updates import IncrementalUpdater
from repro.rules import RuleSet
from repro.exceptions import RuleFormatError


def scan_insert(rules, rule):
    """Add ``rule`` unless an equal rule is held; True if added."""
    if rule in rules:
        return False
    rules.append(rule)
    rules.sort(key=lambda r: -r.priority)
    return True


def scan_discard(rules, rule):
    """Drop the first rule equal to ``rule``; True if one was held."""
    try:
        rules.remove(rule)
    except ValueError:
        return False
    return True


def scan_with_rules_added(ruleset, new_rules):
    combined = list(ruleset.rules) + list(new_rules)
    distinct = len({r.priority for r in combined}) == len(combined)
    return RuleSet(combined, name=ruleset.name,
                   reassign_priorities=not distinct)


def scan_with_rules_removed(ruleset, to_remove):
    removal = set(to_remove)
    remaining = [r for r in ruleset.rules if r not in removal]
    if not remaining:
        raise RuleFormatError("cannot remove every rule from a classifier")
    return RuleSet(remaining, name=ruleset.name)


class ReferenceUpdater(IncrementalUpdater):
    """The updater as it was before rule edits bisected by priority."""

    def add_rule(self, rule):
        root = self.tree.root
        touched = self._insert(root, rule) \
            if rule.intersects(root.ranges) else 0
        if touched:
            self.tree.ruleset = scan_with_rules_added(self.tree.ruleset,
                                                      [rule])
            self.stats.rules_added += 1
            self.stats.leaves_touched += touched
            self.tree.mark_modified()
            self._until = self.tree.version
        return touched

    def remove_rule(self, rule):
        root = self.tree.root
        touched = 0
        if rule.intersects(root.ranges):
            try:
                lower = root.rules[root.rules.index(rule) + 1:]
            except ValueError:
                lower = []
            shadowed = [other for other in lower if other.overlaps(rule)
                        and other.intersects(root.ranges)]
            touched = self._remove(root, rule, shadowed)[0]
        if touched or rule in self.tree.ruleset.rules:
            self.tree.ruleset = scan_with_rules_removed(self.tree.ruleset,
                                                        [rule])
            self.stats.rules_removed += 1
            self.stats.leaves_touched += touched
            self.tree.mark_modified()
            self._until = self.tree.version
        return touched

    def _edit(self, node, rule, insert):
        changed = scan_insert(node.rules, rule) if insert \
            else scan_discard(node.rules, rule)
        if changed:
            node.release_rows()
            if node.is_leaf:
                self._touched[id(node)] = node
        return changed

    def _restore(self, node, removed, shadowed):
        if not shadowed:
            return []
        box = node.ranges
        held = set(node.rules)
        lacking = [other for other in shadowed
                   if other not in held
                   and removed.covers_within(other, box)]
        present = node.rules + lacking
        restored = [
            other for other in lacking
            if not any(higher.priority > other.priority
                       and higher.covers_within(other, box)
                       for higher in present)
        ]
        for other in restored:
            self._edit(node, other, insert=True)
        return restored
