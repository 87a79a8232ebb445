"""Summary nodes: merged covering gates over root clusters.

The paper's related work (Li et al. [17]) unifies "routing, covering
and *merging*" — synthesising more general subscriptions that stand in
for groups of real ones. The wide workloads (``e80a4``, ``extsub4``)
show why that matters here: many-attribute subscriptions are mostly
incomparable, the forest degenerates into a sea of roots, and matching
approaches a linear scan (Fig. 6's slow group).

:class:`SummarizedForest` adds a merging layer on top of the
containment forest: after registration, root nodes are clustered (by
their symbol-equality value, falling back to their constrained
attribute set) and each cluster of at least ``min_cluster`` roots gets
a synthetic *summary node* — the attribute-wise hull over the
cluster's common constraints. A summary covers every member by
construction, so matching stays exact: an event that fails the hull
skips the entire cluster with one test; an event that passes pays one
extra comparison.

Summary nodes carry no subscribers and are rebuilt on demand after
registration changes (``rebuild_summaries``). Ablation A5 measures the
gain on the wide workloads.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.poset import (ContainmentForest, PosetNode,
                                  walk_traced)
from repro.matching.predicates import Constraint, Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.memory import MemoryArena

__all__ = ["hull_subscription", "covering_antichain",
           "SummarizedForest"]


def covering_antichain(forest: ContainmentForest,
                       exclude: Iterable[object] = ()
                       ) -> List[Subscription]:
    """Minimal covering set of the forest's *relevant* subscriptions.

    A node is relevant when it has at least one subscriber outside
    ``exclude``. The walk emits the topmost relevant node of every
    branch and stops descending there: by the containment invariant the
    emitted subscription covers its whole subtree, and siblings (and
    roots) are mutually non-covering, so the result is an antichain —
    exactly the compressed summary one broker advertises to a
    neighbour. ``exclude`` is how split-horizon works: the interest a
    neighbour itself advertised is left out of the advert sent back to
    it. Irrelevant nodes (structure-only, or carrying only excluded
    subscribers) are descended *through*, since a deeper node may still
    be relevant.
    """
    excluded = set(exclude)
    antichain: List[Subscription] = []
    stack = list(forest.roots)
    while stack:
        node = stack.pop()
        if any(subscriber not in excluded
               for subscriber in node.subscribers):
            antichain.append(node.subscription)
        else:
            stack.extend(node.children)
    return antichain


def _hull_pair(a: Constraint, b: Constraint) -> Optional[Constraint]:
    """The tightest constraint covering both, or None if useless.

    Exclusions are dropped (a hull may only be *more* general);
    mixed-type constraints hull to None (no shared gate).
    """
    if a.is_string != b.is_string:
        return None
    if a.is_string:
        if a.equals is not None and a.equals == b.equals:
            return Constraint(equals=a.equals, is_string=True)
        return None
    lo, lo_open = min((a.lo, a.lo_open), (b.lo, b.lo_open),
                      key=lambda pair: (pair[0], pair[1]))
    hi, hi_open = max((a.hi, a.hi_open), (b.hi, b.hi_open),
                      key=lambda pair: (pair[0], not pair[1]))
    if math.isinf(lo) and math.isinf(hi):
        return None  # unbounded: gates nothing
    return Constraint(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open)


def hull_subscription(
        subscriptions: Iterable[Subscription]) -> Optional[Subscription]:
    """Attribute-wise hull over the constraints *common to all*.

    Returns None when the members share no gating constraint (the hull
    would admit everything and prune nothing).
    """
    subscriptions = list(subscriptions)
    if not subscriptions:
        return None
    common: Dict[str, Constraint] = dict(subscriptions[0].items)
    for subscription in subscriptions[1:]:
        items = dict(subscription.items)
        merged: Dict[str, Constraint] = {}
        for attribute, constraint in common.items():
            other = items.get(attribute)
            if other is None:
                continue
            hull = _hull_pair(constraint, other)
            if hull is not None:
                merged[attribute] = hull
        common = merged
        if not common:
            return None
    predicates: List[Predicate] = []
    for attribute, constraint in common.items():
        if constraint.is_string:
            predicates.append(Predicate(attribute, Op.EQ,
                                        constraint.equals))
            continue
        if not math.isinf(constraint.lo):
            predicates.append(Predicate(
                attribute, Op.GT if constraint.lo_open else Op.GE,
                constraint.lo))
        if not math.isinf(constraint.hi):
            predicates.append(Predicate(
                attribute, Op.LT if constraint.hi_open else Op.LE,
                constraint.hi))
    if not predicates:
        return None
    return Subscription(predicates)


def _cluster_key(subscription: Subscription) -> Tuple:
    """Group roots by symbol pin when present, else attribute set."""
    for attribute, constraint in subscription.items:
        if constraint.is_string and constraint.equals is not None:
            return ("pin", attribute, constraint.equals)
    return ("attrs",) + tuple(attribute for attribute, _c
                              in subscription.items)


class SummarizedForest:
    """A containment forest with merged summary gates over its roots."""

    def __init__(self, arena: Optional[MemoryArena] = None,
                 min_cluster: int = 4) -> None:
        if min_cluster < 2:
            raise MatchingError("min_cluster must be at least 2")
        self.base = ContainmentForest(arena=arena, trace_inserts=False)
        self.min_cluster = min_cluster
        self.arena = arena
        #: (summary node, member root nodes) pairs + unclustered roots.
        self._summaries: List[Tuple[PosetNode, List[PosetNode]]] = []
        self._loose_roots: List[PosetNode] = []
        self._built = False
        self.n_summaries = 0

    # -- registration --------------------------------------------------------

    def insert(self, subscription: Subscription,
               subscriber: object) -> None:
        self.base.insert(subscription, subscriber)
        self._built = False

    def remove_subscriber(self, subscription: Subscription,
                          subscriber: object) -> bool:
        """Withdraw one subscriber; stale summaries are invalidated.

        Removal can splice roots out of the base forest, so any hull
        built over them no longer describes the clusters — the summary
        layer is marked dirty and rebuilt on the next match, keeping
        the covering gates exact under unregister churn.
        """
        removed = self.base.remove_subscriber(subscription, subscriber)
        if removed:
            self._built = False
        return removed

    @property
    def n_subscriptions(self) -> int:
        return self.base.n_subscriptions

    # -- summary construction ----------------------------------------------------

    def rebuild_summaries(self) -> int:
        """Cluster roots and build hull gates; returns summary count."""
        clusters: Dict[Tuple, List[PosetNode]] = {}
        for root in self.base.roots:
            clusters.setdefault(_cluster_key(root.subscription),
                                []).append(root)
        self._summaries = []
        self._loose_roots = []
        self.n_summaries = 0
        for members in clusters.values():
            if len(members) < self.min_cluster:
                self._loose_roots.extend(members)
                continue
            hull = hull_subscription(
                node.subscription for node in members)
            if hull is None:
                self._loose_roots.extend(members)
                continue
            summary = PosetNode(hull, self.arena)
            summary.children = list(members)
            self._summaries.append((summary, members))
            self.n_summaries += 1
        self._built = True
        return self.n_summaries

    # -- matching -------------------------------------------------------------------

    def _entry_nodes(self) -> List[PosetNode]:
        if not self._built:
            self.rebuild_summaries()
        return [summary for summary, _members in self._summaries] \
            + self._loose_roots

    def match(self, event: Event) -> Set[object]:
        """Exact matching through the summary gates.

        Entry nodes (summaries + loose roots) pass through the same
        attribute-set gate the base forest applies to its roots: a
        cluster whose common required attributes are absent from the
        event is skipped without evaluating its hull.
        """
        header = event.header
        present = header.keys()
        matched: Set[object] = set()
        stack = [node for node in self._entry_nodes()
                 if node.required_attributes <= present]
        while stack:
            node = stack.pop()
            if node.count(header) > 0:
                matched |= node.subscribers
                stack.extend(node.children)
        return matched

    def match_traced(self, event: Event) -> Tuple[Set[object], int, int]:
        """Traced matching (same accounting as the base forest)."""
        if self.arena is None:
            raise MatchingError("match_traced requires an arena")
        present = event.header.keys()
        stack = [node for node in self._entry_nodes()
                 if node.required_attributes <= present]
        return walk_traced(stack, event.header, self.arena)

    def check_invariants(self) -> None:
        """Every summary must cover each of its members."""
        if not self._built:
            self.rebuild_summaries()
        for summary, members in self._summaries:
            for member in members:
                if not summary.subscription.covers(member.subscription):
                    raise MatchingError(
                        "summary does not cover a member")
            if summary.subscribers:
                raise MatchingError("summary nodes carry no subscribers")
