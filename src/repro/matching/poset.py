"""Containment forest: the subscription index of the routing engine.

Pioneered by Siena (Carzaniga et al. [5]), the index arranges
subscriptions so that a parent *covers* each of its children. Matching
then prunes aggressively: if an event fails a node's subscription, no
descendant can match (they are all more specific) and the whole subtree
is skipped. Workloads whose subscriptions nest deeply (e.g. all-equality
``e100a1``) produce few roots and deep trees — the fast end of Fig. 6 —
while wide many-attribute workloads (``e80a4``, ``extsub4``) yield many
shallow roots and approach a linear scan.

Identical subscriptions share a node (the "reduction of the number of
subscriptions stored" the paper credits containment with), keeping the
in-enclave footprint small.

Nodes are arena-allocated: the index takes an optional
:class:`~repro.sgx.memory.MemoryArena`, and every traversal during
insert/match reports its touches, which is how the enclave-vs-native
curves of Figs 5/7/8 are produced from one code path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.subscriptions import Subscription
from repro.sgx.memory import MemoryArena

__all__ = ["PosetNode", "ContainmentForest", "walk_traced"]


class PosetNode:
    """One stored subscription plus the subscribers interested in it."""

    __slots__ = ("subscription", "children", "subscribers", "address",
                 "size", "count", "required_attributes", "spans")

    def __init__(self, subscription: Subscription,
                 arena: Optional[MemoryArena] = None) -> None:
        self.subscription = subscription
        self.children: List[PosetNode] = []
        self.subscribers: Set[object] = set()
        self.size = size = subscription.size_bytes()
        self.address = address = \
            arena.alloc(size) if arena is not None else 0
        #: Compiled ``header-dict -> +-constraints evaluated`` closure
        #: (positive = match); the per-predicate interpretation is
        #: paid once here, at node creation, instead of on every event
        #: the traversal tests against this node.
        self.count = subscription.compiled()
        #: Attributes an event must carry for this node (and, by
        #: covering, its whole subtree) to possibly match — the
        #: per-root gate consults this before descending.
        self.required_attributes = subscription.required_attributes()
        #: ``spans[n]``: the ``(lines, pages)`` a visit that evaluated
        #: ``n`` constraints reads; ``spans[0]``: the whole node, what
        #: an insert's covering check reads. Address and size are fixed
        #: for the node's lifetime, so they are computed once; None
        #: without a memory model to report to.
        self.spans = None
        if arena is not None:
            memory = arena.memory
            lines, pages = map(tuple, memory.span(address, size))
            # a visit reads a prefix of the node: slices share the ints
            self.spans = ((lines, pages),) + tuple(
                (lines[:len(read_lines)], pages[:len(read_pages)])
                for read_lines, read_pages in (
                    memory.span(address, subscription.visit_bytes(n))
                    for n in range(1, subscription.n_constraints + 1)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PosetNode({self.subscription!r}, "
                f"children={len(self.children)})")


def walk_traced(stack: List[PosetNode], header: dict,
                arena: MemoryArena) -> Tuple[Set[object], int, int]:
    """Depth-first walk from ``stack`` with memory accounting.

    Each visit reads what its node's ``spans`` say for the number of
    constraints evaluated (short-circuiting included); the whole walk
    reaches the memory model as one batch in visit order. Returns
    ``(subscribers, nodes_visited, predicates_evaluated)``.
    """
    matched: Set[object] = set()
    visited = 0
    evaluated = 0
    lines: List[int] = []
    pages: List[int] = []
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
    arena.touch_many(lines, pages)
    return matched, visited, evaluated


class ContainmentForest:
    """Covering-based subscription index with arena-traced traversals."""

    def __init__(self, arena: Optional[MemoryArena] = None,
                 trace_inserts: bool = True,
                 root_gate: bool = True,
                 counters=None) -> None:
        self.roots: List[PosetNode] = []
        self.arena = arena
        #: When False, insertions allocate addresses but do not touch
        #: the memory model (used by sweeps that only measure matching;
        #: the Fig. 8 registration experiment keeps this True).
        self.trace_inserts = trace_inserts
        #: When True (default), matching skips any root tree whose
        #: required attribute set is not contained in the event header.
        #: Exact: a missing attribute fails the root's conjunction, and
        #: covering forces every descendant to require at least the
        #: root's attributes, so the whole tree is a guaranteed miss.
        self.root_gate = root_gate
        #: Optional :class:`repro.matching.stats.MatchCounters` bumped
        #: by every match call (one add per field per event).
        self.counters = counters
        #: Registration generation stamp: bumped on every insert and
        #: every successful removal. Derived match-time structures (the
        #: match memo, the columnar match plane) compare it against the
        #: generation they were built from — an O(1) invalidation with
        #: no eager rebuild, same discipline as
        #: :class:`repro.matching.matcher.MatchMemo`.
        self.generation = 0
        #: Node-level change log for a derived structure that edits
        #: itself in place instead of rebuilding (the columnar plane
        #: arms it with :meth:`record_changes`): ``(node, True)`` when
        #: an insert *creates* a node, ``(node, False)`` when a removal
        #: *splices one out*, in order. Nothing else is logged — a
        #: node's ``subscribers`` set is shared by reference and
        #: re-parenting moves nodes without creating or destroying any.
        #: None: not recording (never armed, or the log outgrew its
        #: limit and a reader must rebuild from :meth:`iter_nodes`).
        self.changes: Optional[List[Tuple[PosetNode, bool]]] = None
        self._change_limit = 0
        self.n_nodes = 0
        self.n_subscriptions = 0
        self._bytes = 0
        # Authoritative key -> node map: identical subscriptions must
        # share a node even when the first-cover descent, after
        # re-parenting, would not walk past the existing copy.
        self._by_key: dict = {}
        #: (generation, header attribute set -> gate survivors)
        self._gate_cache: Tuple[int, dict] = (0, {})

    # -- memory model ----------------------------------------------------------

    def _new_node(self, subscription: Subscription) -> PosetNode:
        node = PosetNode(subscription, self.arena)
        self.n_nodes += 1
        self._bytes += node.size
        return node

    @property
    def index_bytes(self) -> int:
        """Modelled memory footprint of the stored index."""
        return self._bytes

    def record_changes(self, limit: int
                       ) -> List[Tuple[PosetNode, bool]]:
        """Start a fresh change log holding at most ``limit`` entries.

        Returns the list that :attr:`changes` now names. The log has
        one reader: arming it again replaces the list, which is how an
        earlier reader can tell (by identity) that it lost the log.
        One change past ``limit`` the forest stops recording, so a
        write-only phase cannot grow the log without bound.
        """
        self.changes = []
        self._change_limit = limit
        return self.changes

    def stop_recording(self) -> None:
        """Drop the change log: its reader is gone, or must rebuild
        from :meth:`iter_nodes` anyway."""
        self.changes = None

    def _log_change(self, node: PosetNode, created: bool) -> None:
        if len(self.changes) < self._change_limit:
            self.changes.append((node, created))
        else:
            self.stop_recording()

    def _add_subscriber(self, node: PosetNode,
                        subscriber: object) -> None:
        # Re-registering an identical (subscription, subscriber) pair is
        # idempotent: the subscriber set deduplicates, and the count
        # must agree with the sets or check_invariants flags it.
        if subscriber not in node.subscribers:
            node.subscribers.add(subscriber)
            self.n_subscriptions += 1

    # -- insertion ---------------------------------------------------------------

    def insert(self, subscription: Subscription,
               subscriber: object) -> PosetNode:
        """Register ``subscriber``'s interest in ``subscription``.

        Descends to the most specific stored subscription covering the
        new one; if an identical subscription exists the subscriber is
        added to it, otherwise a new node is created there and any
        now-covered siblings are re-parented beneath it.
        """
        if not subscription.is_satisfiable():
            raise MatchingError("refusing to index an unsatisfiable "
                                "subscription")
        # Even an idempotent re-registration may extend a subscriber
        # set, so every insert invalidates derived match planes.
        self.generation += 1
        arena = self.arena if self.trace_inserts else None
        # The descent reads every node it compares against whole; the
        # model gets the reads as one batch (all resident, typically)
        # and the new node's first write as another.
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

        # the descent ended on the identical subscription or on none
        existing = container if container is not None \
            else self._by_key.get(subscription.key())
        if existing is not None:
            self._add_subscriber(existing, subscriber)
            return existing

        new_node = self._new_node(subscription)
        new_node.subscribers.add(subscriber)
        self.n_subscriptions += 1
        # Adopt siblings that the new subscription covers.
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
        """Withdraw one subscriber's interest; prunes emptied nodes.

        Returns True if the (subscription, subscriber) pair was found.
        A node leaves the forest exactly when its last subscriber
        does: it is spliced out wherever it sits and its children are
        hoisted to its former siblings (each is covered by whatever
        covered the node), so :meth:`iter_nodes` never yields a node
        with an empty subscriber set.
        """
        # ``_by_key`` names the node: an unknown pair costs no walk,
        # and neither does a node that keeps other subscribers.
        node = self._by_key.get(subscription.key())
        if node is None or subscriber not in node.subscribers:
            return False
        self.generation += 1
        node.subscribers.discard(subscriber)
        self.n_subscriptions -= 1
        if not node.subscribers:
            # Splice the node out, hoisting its children.
            siblings = self._siblings_of(node)
            siblings.remove(node)
            siblings.extend(node.children)
            node.children = []
            del self._by_key[node.subscription.key()]
            self.n_nodes -= 1
            self._bytes -= node.size
            if self.changes is not None:
                self._log_change(node, False)
            # Release the arena allocation so subscribe/unsubscribe
            # churn does not grow the modelled EPC working set forever.
            if self.arena is not None:
                self.arena.free(node.address, node.size)
        return True

    def _siblings_of(self, node: PosetNode) -> List[PosetNode]:
        """The child list (or the roots) that holds ``node``.

        The node's ancestors all cover it, so only covering branches
        are explored — but *every* covering branch, since re-parenting
        may have moved the node away from the first-cover path its
        insertion took.
        """
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

    # -- matching -----------------------------------------------------------------

    def _entry_roots(self, event: Event) -> Tuple[List[PosetNode], int]:
        """Roots surviving the attribute-set gate + how many it cut.

        A fresh list each call (the walks consume it as their stack).
        The survivors depend only on which attributes the header
        carries, and streams repeat a handful of attribute sets, so
        they are kept per set until the next registration change.
        """
        roots = self.roots
        if not self.root_gate:
            return list(roots), 0
        generation, survivors_by_set = self._gate_cache
        if generation != self.generation or len(survivors_by_set) > 64:
            survivors_by_set = {}
            self._gate_cache = (self.generation, survivors_by_set)
        present = frozenset(event.header)
        survivors = survivors_by_set.get(present)
        if survivors is None:
            survivors = survivors_by_set[present] = [
                root for root in roots
                if root.required_attributes <= present]
        return list(survivors), len(roots) - len(survivors)

    def match(self, event: Event) -> Set[object]:
        """All subscribers whose subscription matches ``event``.

        Untraced fast path (no memory accounting) — used by wall-clock
        benchmarks and by correctness tests. Evaluates the compiled
        per-node closures behind the per-root attribute gate.
        """
        header = event.header
        matched: Set[object] = set()
        stack, _gated = self._entry_roots(event)
        pop = stack.pop
        while stack:
            node = pop()
            if node.count(header) > 0:
                matched |= node.subscribers
                stack.extend(node.children)
        return matched

    def match_traced(self, event: Event) -> Tuple[Set[object], int, int]:
        """Matching with full memory/compute accounting.

        Touches each visited node's arena allocation and returns
        ``(subscribers, nodes_visited, predicates_evaluated)`` so the
        caller can charge per-evaluation cycles to the platform.
        """
        if self.arena is None:
            raise MatchingError("match_traced requires an arena-backed "
                                "index")
        stack, gated = self._entry_roots(event)
        matched, visited, evaluated = walk_traced(stack, event.header,
                                                  self.arena)
        counters = self.counters
        if counters is not None:
            counters.matches += 1
            counters.nodes_visited += visited
            counters.predicates_evaluated += evaluated
            counters.roots_gated += gated
        return matched, visited, evaluated

    # -- introspection ---------------------------------------------------------------

    def iter_nodes(self) -> Iterable[PosetNode]:
        """Depth-first iteration over all stored nodes."""
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def check_invariants(self) -> None:
        """Verify structural invariants (used by property tests).

        Every child must be strictly covered by its parent, no node may
        appear twice in the forest, and the bookkeeping the removal
        path maintains (key map, node/subscription counts, modelled
        bytes) must agree with the structure — removals hoist children
        and splice nodes, so churn is exactly where stale counters and
        dangling key-map entries would creep in.
        """
        seen = set()
        seen_keys = set()
        walked_nodes = 0
        walked_subscriptions = 0
        walked_bytes = 0
        stack = [(None, root) for root in self.roots]
        while stack:
            parent, node = stack.pop()
            if id(node) in seen:
                raise MatchingError("node linked twice in the forest")
            seen.add(id(node))
            key = node.subscription.key()
            if key in seen_keys:
                raise MatchingError(
                    "identical subscription stored in two nodes")
            seen_keys.add(key)
            if self._by_key.get(key) is not node:
                raise MatchingError("key map out of sync with forest")
            walked_nodes += 1
            walked_subscriptions += len(node.subscribers)
            walked_bytes += node.size
            if len(node.children) != len(set(map(id, node.children))):
                raise MatchingError("duplicate child link")
            if parent is not None:
                if not parent.subscription.covers(node.subscription):
                    raise MatchingError(
                        "child not covered by its parent")
                if parent.subscription.key() == node.subscription.key():
                    raise MatchingError("duplicate subscription nodes")
            stack.extend((node, child) for child in node.children)
        if walked_nodes != self.n_nodes:
            raise MatchingError(
                f"n_nodes={self.n_nodes} but forest holds "
                f"{walked_nodes}")
        if walked_subscriptions != self.n_subscriptions:
            raise MatchingError(
                f"n_subscriptions={self.n_subscriptions} but forest "
                f"holds {walked_subscriptions}")
        if walked_bytes != self._bytes:
            raise MatchingError(
                f"index_bytes={self._bytes} out of sync with stored "
                f"nodes ({walked_bytes})")
        if len(self._by_key) != walked_nodes:
            raise MatchingError(
                "key map holds entries for nodes not in the forest")
