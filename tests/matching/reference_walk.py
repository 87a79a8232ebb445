"""Pinned reference: the forest's root loop as it stood before PR 24
(commit 65e5a63), when every root was one trip through the scalar walk.

``reference_entry_roots`` is ``ContainmentForest._entry_roots`` without
its per-shape survivor cache (the cache changed no answer), and
``reference_walk`` is the body of ``walk_traced`` with the trace
returned instead of handed to the arena. They live under ``tests/`` on
purpose: ``test_forest_scan.py`` compares the compiled root scan in
``src/`` against code that a change to ``src/`` cannot move, the way
``tests/sgx/reference_lru.py`` keeps the old LRU.
"""

from __future__ import annotations


def reference_entry_roots(forest, event):
    """Roots surviving the attribute-set gate + how many it cut."""
    roots = forest.roots
    if not forest.root_gate:
        return list(roots), 0
    present = frozenset(event.header)
    survivors = [root for root in roots
                 if root.required_attributes <= present]
    return list(survivors), len(roots) - len(survivors)


def reference_walk(stack, header):
    """Depth-first walk from ``stack``: ``(subscribers, nodes_visited,
    predicates_evaluated, lines, pages)``, the last two being what the
    walk hands ``arena.touch_many``."""
    matched = set()
    visited = 0
    evaluated = 0
    lines = []
    pages = []
    pop = stack.pop
    while stack:
        node = pop()
        visited += 1
        n_evals = node.count(header)
        if n_evals > 0:
            matched |= node.subscribers
            stack.extend(node.children)
        else:
            n_evals = -n_evals
        evaluated += n_evals
        node_lines, node_pages = node.spans[n_evals]
        lines += node_lines
        pages += node_pages
    return matched, visited, evaluated, lines, pages


def reference_match_traced(forest, event):
    """What ``match_traced`` returned and traced at the parent, plus
    the number of roots the gate cut."""
    stack, gated = reference_entry_roots(forest, event)
    return reference_walk(stack, event.header) + (gated,)
