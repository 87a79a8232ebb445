"""Hybrid containment index: enclave/external split (paper §6).

The paper's future-work proposal for beating the EPC limit: "optimising
our data structures to avoid paging and cache misses, by smartly
storing and accessing the containment trees, *splitting them into
enclaved and external parts*". This module implements that idea:

* nodes up to ``split_depth`` (the hot roots the matcher always
  touches) live in protected enclave memory;
* deeper nodes live in *untrusted* memory with their subscription
  content encrypted and MACed — on every visit the matcher pays an
  AES-CTR decrypt + integrity check of the node instead of the MEE/EPC
  costs of keeping it resident in protected memory.

The trade-off this creates is measured by the ``ext_hybrid`` extension
benchmark: below the EPC limit the full-enclave index wins (no crypto
per node); past the limit the hybrid index keeps its protected working
set bounded by the hot top levels and sidesteps the Fig. 8 paging
cliff entirely.

Placement is decided at insertion time from the descent depth; nodes
adopted under a later, more general subscription keep their placement
(a production implementation would migrate them — the conservative
choice only *under*-reports the hybrid's benefit).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import CostModel
from repro.sgx.memory import MemoryArena

__all__ = ["HybridNode", "HybridContainmentForest"]


class HybridNode:
    """A poset node that knows which side of the boundary it lives on."""

    __slots__ = ("subscription", "children", "subscribers", "address",
                 "size", "external")

    def __init__(self, subscription: Subscription, address: int,
                 size: int, external: bool) -> None:
        self.subscription = subscription
        self.children: List[HybridNode] = []
        self.subscribers: Set[object] = set()
        self.address = address
        self.size = size
        self.external = external


class HybridContainmentForest:
    """Containment forest split across the enclave boundary.

    ``enclave_arena`` holds nodes at depth <= ``split_depth``;
    ``external_arena`` holds the rest, charged an AES decrypt +
    integrity verification per visit (the node content is sealed, so
    confidentiality is preserved — the untrusted side stores only
    ciphertext).
    """

    def __init__(self, enclave_arena: MemoryArena,
                 external_arena: MemoryArena,
                 costs: CostModel, split_depth: int = 1) -> None:
        if enclave_arena.enclave is not True:
            raise MatchingError("enclave_arena must be protected")
        if external_arena.enclave is not False:
            raise MatchingError("external_arena must be untrusted")
        if split_depth < 0:
            raise MatchingError("split_depth must be non-negative")
        self.roots: List[HybridNode] = []
        self.enclave_arena = enclave_arena
        self.external_arena = external_arena
        self.costs = costs
        self.split_depth = split_depth
        self.n_nodes = 0
        self.n_subscriptions = 0
        self.enclave_bytes = 0
        self.external_bytes = 0
        self._by_key: dict = {}

    # -- placement ---------------------------------------------------------

    def _new_node(self, subscription: Subscription,
                  depth: int) -> HybridNode:
        size = subscription.size_bytes()
        external = depth > self.split_depth
        if external:
            arena = self.external_arena
            self.external_bytes += size
        else:
            arena = self.enclave_arena
            self.enclave_bytes += size
        self.n_nodes += 1
        return HybridNode(subscription, arena.alloc(size), size,
                          external)

    def _visit_cost_cycles(self, node: HybridNode) -> float:
        """Extra compute charged when touching an external node."""
        if not node.external:
            return 0.0
        blocks = (node.size + 15) // 16
        return (self.costs.aes_setup_cycles
                + blocks * self.costs.aes_block_cycles)

    def _touch(self, node: HybridNode,
               n_evals: Optional[int] = None) -> None:
        span = node.size if n_evals is None \
            else node.subscription.visit_bytes(n_evals)
        if node.external:
            # External nodes are sealed: the whole node is fetched and
            # decrypted regardless of how early matching short-circuits.
            self.external_arena.touch(node.address, node.size)
            self.external_arena.memory.charge(
                self._visit_cost_cycles(node))
        else:
            self.enclave_arena.touch(node.address, span)

    def _add_subscriber(self, node: HybridNode,
                        subscriber: object) -> None:
        # Identical (subscription, subscriber) pairs are idempotent —
        # the count must track the sets exactly, as in the base forest.
        if subscriber not in node.subscribers:
            node.subscribers.add(subscriber)
            self.n_subscriptions += 1

    # -- insertion ----------------------------------------------------------

    def insert(self, subscription: Subscription,
               subscriber: object) -> HybridNode:
        """Insert with the same first-cover descent as the base forest."""
        if not subscription.is_satisfiable():
            raise MatchingError("refusing to index an unsatisfiable "
                                "subscription")
        siblings = self.roots
        depth = 1
        while True:
            container = None
            for node in siblings:
                self._touch(node)
                if node.subscription.covers(subscription):
                    if node.subscription.key() == subscription.key():
                        self._add_subscriber(node, subscriber)
                        return node
                    container = node
                    break
            if container is None:
                break
            siblings = container.children
            depth += 1

        existing = self._by_key.get(subscription.key())
        if existing is not None:
            self._add_subscriber(existing, subscriber)
            return existing

        new_node = self._new_node(subscription, depth)
        new_node.subscribers.add(subscriber)
        kept = []
        for node in siblings:
            if subscription.covers(node.subscription):
                new_node.children.append(node)
            else:
                kept.append(node)
        siblings[:] = kept
        siblings.append(new_node)
        self._by_key[subscription.key()] = new_node
        self._touch(new_node)
        self.n_subscriptions += 1
        return new_node

    # -- removal ------------------------------------------------------------

    def remove_subscriber(self, subscription: Subscription,
                          subscriber: object) -> bool:
        """Withdraw one subscriber; same semantics as the base forest.

        Searches every covering branch (re-parenting may have moved the
        node off the first-cover path), splices out emptied nodes
        hoisting their children, and releases the node's bytes from
        whichever side of the enclave boundary held it.
        """
        target_key = subscription.key()
        node = None
        siblings: List[HybridNode] = self.roots
        stack: List[Tuple[List[HybridNode], HybridNode]] = [
            (self.roots, root) for root in self.roots]
        while stack:
            sibling_list, candidate = stack.pop()
            if not candidate.subscription.covers(subscription):
                continue
            if candidate.subscription.key() == target_key:
                node = candidate
                siblings = sibling_list
                break
            stack.extend((candidate.children, child)
                         for child in candidate.children)
        if node is None or subscriber not in node.subscribers:
            return False
        node.subscribers.discard(subscriber)
        self.n_subscriptions -= 1
        if not node.subscribers:
            siblings.remove(node)
            siblings.extend(node.children)
            node.children = []
            del self._by_key[node.subscription.key()]
            self.n_nodes -= 1
            if node.external:
                self.external_bytes -= node.size
                self.external_arena.free(node.address, node.size)
            else:
                self.enclave_bytes -= node.size
                self.enclave_arena.free(node.address, node.size)
        return True

    # -- matching -------------------------------------------------------------

    def match(self, event: Event) -> Set[object]:
        """Untraced matching (correctness tests)."""
        matched: Set[object] = set()
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node.subscription.matches(event):
                matched |= node.subscribers
                stack.extend(node.children)
        return matched

    def match_traced(self, event: Event) -> Tuple[Set[object], int, int]:
        """Traced matching; external visits pay decrypt + verify.

        Accounting is batched with *interleaving preserved*: visits
        accumulate coalesced ``(address, n_bytes)`` runs, and a run
        segment is flushed through ``touch_runs`` whenever the walk
        crosses the enclave boundary — so the two arenas' accesses
        reach the shared LLC model in exactly the per-touch order, and
        the external segments' AES decrypt/verify cycles are charged
        once per segment (cycle charges are additive, so the totals
        are identical to per-touch charging). A snapshot-equality test
        pins this against the per-touch reference walk.
        """
        matched: Set[object] = set()
        visited = 0
        evaluated = 0
        stack = list(self.roots)
        runs: List[Tuple[int, int]] = []
        external = False     # side of the boundary the segment is on
        aes_cycles = 0.0
        while stack:
            node = stack.pop()
            visited += 1
            ok, n_evals = node.subscription.matches_counting(event)
            evaluated += n_evals
            if node.external != external and runs:
                self._flush(external, runs, aes_cycles)
                runs, aes_cycles = [], 0.0
            external = node.external
            if external:
                # External nodes are sealed: the whole node is fetched
                # and decrypted regardless of short-circuiting.
                runs.append((node.address, node.size))
                aes_cycles += self._visit_cost_cycles(node)
            else:
                runs.append((node.address,
                             node.subscription.visit_bytes(n_evals)))
            if ok:
                matched |= node.subscribers
                stack.extend(node.children)
        if runs:
            self._flush(external, runs, aes_cycles)
        return matched, visited, evaluated

    def _flush(self, external: bool, runs: List[Tuple[int, int]],
               aes_cycles: float) -> None:
        arena = self.external_arena if external else self.enclave_arena
        arena.touch_runs(runs)
        if external:
            arena.memory.charge(aes_cycles)

    def match_traced_pertouch(self, event: Event
                              ) -> Tuple[Set[object], int, int]:
        """Per-touch reference walk (pre-batching accounting).

        Kept as the oracle for the snapshot-equality test: it must
        produce byte-identical simulated memory counters to
        :meth:`match_traced` on any event stream.
        """
        matched: Set[object] = set()
        visited = 0
        evaluated = 0
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            visited += 1
            ok, n_evals = node.subscription.matches_counting(event)
            evaluated += n_evals
            self._touch(node, n_evals)
            if ok:
                matched |= node.subscribers
                stack.extend(node.children)
        return matched, visited, evaluated

    # -- introspection -----------------------------------------------------------

    @property
    def protected_bytes(self) -> int:
        """Bytes that must stay resident in the EPC."""
        return self.enclave_bytes

    def placement_summary(self) -> Tuple[int, int]:
        """(enclave-resident nodes, external nodes)."""
        internal = external = 0
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node.external:
                external += 1
            else:
                internal += 1
            stack.extend(node.children)
        return internal, external
