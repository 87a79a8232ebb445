"""Pinned reference models: the LLC and EPC accounting as they stood
before the stamp-ordered rewrite (commit 772868f).

``ReferenceLru`` is the ``OrderedDict``-per-set cache model, one line
at a time; ``ReferenceEpc`` the per-page residency loop over policies
that are only ever told about one page at a time; ``ReferenceMemory``
the per-line, per-page cycle arithmetic of ``MemorySubsystem``. They live
under ``tests/`` on purpose: the differential suite
(``test_lru_differential.py``) compares ``src/`` against code that a
change to ``src/`` cannot move.
"""

from __future__ import annotations

from collections import OrderedDict, deque


class ReferenceLru:
    """Set-associative LRU: each set an OrderedDict, front = LRU."""

    def __init__(self, size_bytes, line_bytes=64, associativity=16):
        self.line_shift = line_bytes.bit_length() - 1
        self.ways = associativity
        self.n_sets = size_bytes // (line_bytes * associativity)
        self._set_mask = self.n_sets - 1
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access_line(self, line):
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[line] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)
        return False

    def flush(self):
        for cache_set in self._sets:
            cache_set.clear()


class _Lru:

    def __init__(self):
        self._order = OrderedDict()

    def loaded(self, page):
        self._order[page] = True

    def accessed(self, page):
        self._order.move_to_end(page)

    def evict(self):
        return self._order.popitem(last=False)[0]

    def removed(self, page):
        self._order.pop(page, None)


class _Clock:

    def __init__(self):
        self._ring = deque()
        self._referenced = set()
        self._resident = set()

    def loaded(self, page):
        self._ring.append(page)
        self._resident.add(page)
        self._referenced.add(page)

    def accessed(self, page):
        self._referenced.add(page)

    def evict(self):
        while True:
            page = self._ring.popleft()
            if page not in self._resident:
                continue
            if page in self._referenced:
                self._referenced.discard(page)
                self._ring.append(page)
                continue
            self._resident.discard(page)
            return page

    def removed(self, page):
        self._resident.discard(page)
        self._referenced.discard(page)


class _Fifo:

    def __init__(self):
        self._queue = deque()
        self._resident = set()

    def loaded(self, page):
        self._queue.append(page)
        self._resident.add(page)

    def accessed(self, page):
        pass

    def evict(self):
        while True:
            page = self._queue.popleft()
            if page in self._resident:
                self._resident.discard(page)
                return page

    def removed(self, page):
        self._resident.discard(page)


class ReferenceEpc:
    """EPC residency, one page at a time."""

    def __init__(self, capacity_pages, policy):
        self.capacity_pages = capacity_pages
        self.policy = {"lru": _Lru, "clock": _Clock,
                       "fifo": _Fifo}[policy]()
        self._resident = {}
        self._versions = {}
        self.faults = 0
        self.evictions = 0
        self.loads = 0

    def is_resident(self, page):
        return page in self._resident

    def version_of(self, page):
        return self._versions.get(page, 0)

    def access(self, page):
        if page in self._resident:
            self.policy.accessed(page)
            return False
        self.faults += 1
        self.loads += 1
        if len(self._resident) >= self.capacity_pages:
            victim = self.policy.evict()
            del self._resident[victim]
            self.evictions += 1
            self._versions[victim] = self._versions.get(victim, 0) + 1
        self._resident[page] = True
        self.policy.loaded(page)
        return True

    def remove(self, page):
        if self._resident.pop(page, None) is not None:
            self.policy.removed(page)


class ReferenceMemory:
    """``MemorySubsystem`` accounting, per run and per line/page."""

    def __init__(self, spec):
        self.costs = spec.costs
        self.cache = ReferenceLru(spec.llc_bytes, spec.cache_line_bytes,
                                  spec.llc_associativity)
        self.epc = ReferenceEpc(spec.epc_usable_pages, spec.epc_policy)
        self._line_shift = self.cache.line_shift
        self._page_shift = spec.page_bytes.bit_length() - 1
        self._untrusted_pages = set()
        self.minor_faults = 0
        self.cycles = 0.0

    def _pages(self, address, n_bytes):
        return range(address >> self._page_shift,
                     ((address + n_bytes - 1) >> self._page_shift) + 1)

    def touch(self, address, n_bytes, enclave):
        costs = self.costs
        cycles = 0
        for line in range(address >> self._line_shift,
                          ((address + n_bytes - 1)
                           >> self._line_shift) + 1):
            if self.cache.access_line(line):
                cycles += costs.llc_hit_cycles
            else:
                cycles += costs.llc_miss_cycles
                if enclave:
                    cycles += costs.mee_line_cycles
        for page in self._pages(address, n_bytes):
            if enclave:
                if self.epc.access(page):
                    cycles += costs.epc_fault_cycles
            elif page not in self._untrusted_pages:
                self._untrusted_pages.add(page)
                self.minor_faults += 1
                cycles += costs.minor_fault_cycles
        self.cycles += cycles

    def eremove_range(self, address, n_bytes):
        removed = 0
        for page in self._pages(address, n_bytes):
            if self.epc.is_resident(page):
                self.epc.remove(page)
                removed += 1
        return removed

    def prefault(self, address, n_bytes, enclave):
        if enclave:
            epc = self.epc
            saved = epc.faults, epc.evictions, epc.loads
            for page in self._pages(address, n_bytes):
                epc.access(page)
            epc.faults, epc.evictions, epc.loads = saved
        else:
            self._untrusted_pages.update(self._pages(address, n_bytes))
