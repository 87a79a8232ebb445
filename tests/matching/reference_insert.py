"""Pinned reference: the forest's insert and removal search as they
stood before the root table (commit 3765dfe), when the root level of
both was a loop of ``Subscription.covers`` calls.

``ReferenceForest`` is a :class:`~repro.matching.poset.ContainmentForest`
whose ``insert``, ``remove_subscriber`` and ``_siblings_of`` are those
loops, verbatim; it never reads or writes the root table, so its own
``check_invariants`` is not meaningful — compare its structure and its
trace with :func:`forest_shape` instead. It lives under ``tests/`` on
purpose: ``test_root_table.py`` compares the table-driven insert in
``src/`` against code a change to ``src/`` cannot move, the way
``reference_walk.py`` keeps the walk's old root loop.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import MatchingError
from repro.matching.poset import ContainmentForest, PosetNode
from repro.matching.subscriptions import Subscription


class ReferenceForest(ContainmentForest):
    """The forest with its parent's write path."""

    def insert(self, subscription: Subscription,
               subscriber: object) -> PosetNode:
        if not subscription.is_satisfiable():
            raise MatchingError("refusing to index an unsatisfiable "
                                "subscription")
        self.generation += 1
        self._scan = None
        arena = self.arena if self.trace_inserts else None
        lines: List[int] = []
        pages: List[int] = []
        siblings = self.roots
        while True:
            container = None
            for node in siblings:
                if arena is not None:
                    node_lines, node_pages = node.spans[0]
                    lines += node_lines
                    pages += node_pages
                if node.subscription.covers(subscription):
                    container = node
                    break
            if container is None \
                    or container.subscription.key() == subscription.key():
                break
            siblings = container.children
        if arena is not None:
            arena.touch_many(lines, pages)

        existing = container if container is not None \
            else self._by_key.get(subscription.key())
        if existing is not None:
            self._add_subscriber(existing, subscriber)
            return existing

        new_node = self._new_node(subscription)
        new_node.subscribers.add(subscriber)
        self.n_subscriptions += 1
        kept = []
        for node in siblings:
            if subscription.covers(node.subscription):
                new_node.children.append(node)
            else:
                kept.append(node)
        siblings[:] = kept
        siblings.append(new_node)
        self._by_key[subscription.key()] = new_node
        if self.changes is not None:
            self._log_change(new_node, True)
        if arena is not None:
            arena.touch_many(*new_node.spans[0])
        return new_node

    def remove_subscriber(self, subscription: Subscription,
                          subscriber: object) -> bool:
        node = self._by_key.get(subscription.key())
        if node is None or subscriber not in node.subscribers:
            return False
        self.generation += 1
        self._scan = None
        node.subscribers.discard(subscriber)
        self.n_subscriptions -= 1
        if not node.subscribers:
            siblings = self._siblings_of(node)
            siblings.remove(node)
            siblings.extend(node.children)
            node.children = []
            del self._by_key[node.subscription.key()]
            self.n_nodes -= 1
            self._bytes -= node.size
            if self.changes is not None:
                self._log_change(node, False)
            if self.arena is not None:
                self.arena.free(node.address, node.size)
        return True

    def _siblings_of(self, node: PosetNode) -> List[PosetNode]:
        subscription = node.subscription
        stack: List[Tuple[List[PosetNode], PosetNode]] = [
            (self.roots, root) for root in self.roots]
        while stack:
            siblings, candidate = stack.pop()
            if candidate is node:
                return siblings
            if candidate.subscription.covers(subscription):
                stack.extend((candidate.children, child)
                             for child in candidate.children)
        raise MatchingError("indexed node is not in the forest")


def forest_shape(forest: ContainmentForest, where=lambda address: address):
    """The forest as nested tuples: per node, in list order, its
    subscription key, its sorted subscribers, ``where`` its arena
    address, and its children's shapes."""
    def shape(node):
        return (node.subscription.key(),
                tuple(sorted(node.subscribers, key=repr)),
                where(node.address), tuple(map(shape, node.children)))
    return tuple(map(shape, forest.roots))
