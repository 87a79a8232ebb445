"""EPC page-replacement policies.

The SGX kernel driver chooses which EPC page to evict when the enclave
working set exceeds the protected region (paper §2: "the page fault is
handled by an SGX driver in the operating system that selects a page of
the EPC to evict"). The stock Linux driver approximates LRU with a
second-chance scan; this module provides three policies so the paging
experiment (Fig. 8) can be ablated over the driver's choice:

* :class:`LruPolicy` — exact least-recently-used (upper bound on what
  recency tracking can do);
* :class:`ClockPolicy` — second-chance/CLOCK, what real drivers
  approximate LRU with (one reference bit per page);
* :class:`FifoPolicy` — eviction in load order, the cheapest possible
  driver.

All policies expose the same interface: ``loaded(page)``,
``accessed(page)``, ``accessed_many(pages)`` (a batch of resident
pages, equivalent to ``accessed`` on each in order), ``evict() ->
page``, ``removed(page)``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Iterable, Set

from repro.errors import EpcError

__all__ = ["LruPolicy", "ClockPolicy", "FifoPolicy", "make_policy",
           "POLICY_NAMES"]


class LruPolicy:
    """Exact LRU via an ordered map (front = least recently used)."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, bool]" = OrderedDict()

    def loaded(self, page: int) -> None:
        self._order[page] = True

    def accessed(self, page: int) -> None:
        self._order.move_to_end(page)

    def accessed_many(self, pages: Iterable[int]) -> None:
        # Only each page's last access decides the final order: one
        # move per distinct page, in last-occurrence order.
        move_to_end = self._order.move_to_end
        for page in reversed(dict.fromkeys(reversed(pages))):
            move_to_end(page)

    def evict(self) -> int:
        if not self._order:
            raise EpcError("no page to evict")
        page, _ = self._order.popitem(last=False)
        return page

    def removed(self, page: int) -> None:
        self._order.pop(page, None)

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy:
    """Second-chance (CLOCK): a reference bit per page, a sweeping hand.

    Hits are nearly free (set a bit); eviction sweeps the circular
    list, clearing bits until it finds an unreferenced victim — the
    classical approximation real paging drivers use.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring: Deque[int] = deque()
        self._referenced: Set[int] = set()
        self._resident: Set[int] = set()

    def loaded(self, page: int) -> None:
        self._ring.append(page)
        self._resident.add(page)
        self._referenced.add(page)

    def accessed(self, page: int) -> None:
        self._referenced.add(page)

    def accessed_many(self, pages: Iterable[int]) -> None:
        self._referenced.update(pages)

    def evict(self) -> int:
        while self._ring:
            page = self._ring.popleft()
            if page not in self._resident:
                continue  # lazily dropped by removed()
            if page in self._referenced:
                self._referenced.discard(page)
                self._ring.append(page)  # second chance
                continue
            self._resident.discard(page)
            return page
        raise EpcError("no page to evict")

    def removed(self, page: int) -> None:
        self._resident.discard(page)
        self._referenced.discard(page)

    def __len__(self) -> int:
        return len(self._resident)


class FifoPolicy:
    """Evict in load order; accesses never refresh."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[int] = deque()
        self._resident: Set[int] = set()

    def loaded(self, page: int) -> None:
        self._queue.append(page)
        self._resident.add(page)

    def accessed(self, page: int) -> None:
        pass

    accessed_many = accessed

    def evict(self) -> int:
        while self._queue:
            page = self._queue.popleft()
            if page in self._resident:
                self._resident.discard(page)
                return page
        raise EpcError("no page to evict")

    def removed(self, page: int) -> None:
        self._resident.discard(page)

    def __len__(self) -> int:
        return len(self._resident)


POLICY_NAMES = ("lru", "clock", "fifo")

_POLICIES = {"lru": LruPolicy, "clock": ClockPolicy, "fifo": FifoPolicy}


def make_policy(name: str):
    """Instantiate a replacement policy by name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise EpcError(f"unknown eviction policy {name!r}; "
                       f"known: {', '.join(POLICY_NAMES)}")
