"""Naive linear-scan matcher: the no-containment baseline.

Used by the containment ablation benchmark (DESIGN.md experiment A1) to
quantify what the poset buys: the naive matcher evaluates every stored
subscription against every event, which is also the cost envelope that
encrypted-matching schemes like ASPE are stuck with (they cannot prune
without learning the data).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.matching.events import Event
from repro.matching.subscriptions import Subscription
from repro.sgx.memory import MemoryArena

__all__ = ["NaiveMatcher"]


class NaiveMatcher:
    """Flat subscription table with linear-scan matching."""

    def __init__(self, arena: Optional[MemoryArena] = None) -> None:
        self._entries: List[Tuple[Subscription, Set[object], int, int]] = []
        self._by_key: Dict[tuple, int] = {}
        self.arena = arena
        self._bytes = 0

    def insert(self, subscription: Subscription,
               subscriber: object) -> None:
        """Store a subscription (identical ones share an entry)."""
        index = self._by_key.get(subscription.key())
        if index is not None:
            self._entries[index][1].add(subscriber)
            return
        size = subscription.size_bytes()
        address = self.arena.alloc(size) if self.arena is not None else 0
        self._by_key[subscription.key()] = len(self._entries)
        self._entries.append((subscription, {subscriber}, address, size))
        self._bytes += size

    def remove_subscriber(self, subscription: Subscription,
                          subscriber: object) -> bool:
        """Withdraw one subscriber; drops the entry when it empties.

        Returns True if the (subscription, subscriber) pair was stored.
        Same contract as the containment forest's removal, so the
        differential property tests can churn all matchers through an
        identical register/unregister script.
        """
        index = self._by_key.get(subscription.key())
        if index is None:
            return False
        _stored, subscribers, address, size = self._entries[index]
        if subscriber not in subscribers:
            return False
        subscribers.discard(subscriber)
        if subscribers:
            return True
        # Swap-remove keeps the scan table dense; the moved entry's
        # key-map slot is rewritten to its new position.
        last = self._entries.pop()
        if index < len(self._entries):
            self._entries[index] = last
            self._by_key[last[0].key()] = index
        del self._by_key[subscription.key()]
        self._bytes -= size
        if self.arena is not None:
            self.arena.free(address, size)
        return True

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def n_subscriptions(self) -> int:
        """Stored (subscription, subscriber) pairs."""
        return sum(len(subscribers)
                   for _s, subscribers, _a, _z in self._entries)

    @property
    def index_bytes(self) -> int:
        return self._bytes

    def match(self, event: Event) -> Set[object]:
        """Scan every entry; no pruning."""
        matched: Set[object] = set()
        for subscription, subscribers, _, _ in self._entries:
            if subscription.matches(event):
                matched |= subscribers
        return matched

    def match_traced(self, event: Event) -> Tuple[Set[object], int, int]:
        """Linear scan with memory touches and evaluation counts."""
        arena = self.arena
        matched: Set[object] = set()
        visited = 0
        evaluated = 0
        runs: List[Tuple[int, int]] = []
        for subscription, subscribers, address, _size in self._entries:
            visited += 1
            ok, n_evals = subscription.matches_counting(event)
            evaluated += n_evals
            # Same short-circuit-aware touch model as the forest, one
            # coalesced run per scanned entry, batched after the scan.
            runs.append((address, subscription.visit_bytes(n_evals)))
            if ok:
                matched |= subscribers
        if arena is not None:
            arena.touch_runs(runs)
        return matched, visited, evaluated
