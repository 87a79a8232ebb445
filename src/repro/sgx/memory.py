"""Traced memory subsystem: allocation, cache/EPC accounting, cycles.

This is the spine of the performance model. Data structures that the
routing engine traverses (the containment poset, the ASPE matrix store)
allocate their nodes from a :class:`MemoryArena`; every traversal then
reports its touches to the owning :class:`MemorySubsystem`, which drives
the LLC model, the EPC residency model and the cycle account.

Two address spaces are distinguished by the arena's ``enclave`` flag:

* *enclave* addresses — misses additionally pay the MEE line cost, and
  page touches go through the EPC manager (faulting when the working
  set exceeds the usable EPC);
* *untrusted* addresses — misses pay a plain DRAM access, and each page
  pays a single OS minor fault on first touch (``getrusage`` ``minflt``
  semantics, which Figure 8 compares against EPC faults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.errors import SgxError
from repro.sgx.cache import CacheModel
from repro.sgx.cpu import PlatformSpec, SKYLAKE_I7_6700
from repro.sgx.epc import EpcManager

__all__ = ["MemorySubsystem", "MemoryArena", "TraceArena",
           "MemoryCounters"]

#: Enclave allocations live in a disjoint upper address range.
ENCLAVE_BASE = 1 << 40
UNTRUSTED_BASE = 1 << 20


@dataclass
class MemoryCounters:
    """Snapshot of the subsystem's accounting state."""

    cycles: float
    llc_hits: int
    llc_misses: int
    epc_faults: int
    epc_evictions: int
    minor_faults: int

    @property
    def llc_accesses(self) -> int:
        return self.llc_hits + self.llc_misses

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_accesses
        return self.llc_misses / total if total else 0.0

    def delta(self, earlier: "MemoryCounters") -> "MemoryCounters":
        """Counters accumulated since ``earlier``."""
        return MemoryCounters(
            cycles=self.cycles - earlier.cycles,
            llc_hits=self.llc_hits - earlier.llc_hits,
            llc_misses=self.llc_misses - earlier.llc_misses,
            epc_faults=self.epc_faults - earlier.epc_faults,
            epc_evictions=self.epc_evictions - earlier.epc_evictions,
            minor_faults=self.minor_faults - earlier.minor_faults,
        )


def _collapsed(pages: np.ndarray) -> List[int]:
    """``pages`` without consecutive repeats, as Python ints."""
    keep = np.empty(len(pages), dtype=bool)
    keep[:1] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep].tolist()


class MemorySubsystem:
    """Cycle-accounted cache + paging model shared by one platform."""

    __slots__ = ("spec", "costs", "cache", "epc", "cycles",
                 "_untrusted_pages", "minor_faults", "_line_shift",
                 "_page_shift", "_next_base")

    def __init__(self, spec: PlatformSpec = SKYLAKE_I7_6700) -> None:
        self.spec = spec
        self.costs = spec.costs
        self.cache = CacheModel(spec.llc_bytes, spec.cache_line_bytes,
                                spec.llc_associativity)
        self.epc = EpcManager(spec)
        self.cycles = 0.0
        self._untrusted_pages: Set[int] = set()
        self.minor_faults = 0
        self._line_shift = self.cache.line_shift
        self._page_shift = spec.page_bytes.bit_length() - 1
        if 1 << self._page_shift != spec.page_bytes:
            raise SgxError("page size must be a power of two")
        #: where the next untrusted / enclave arena of this platform
        #: starts: the first at the space's base, the rest
        #: ``MemoryArena.ARENA_SPAN`` apart, in creation order
        self._next_base = [UNTRUSTED_BASE, ENCLAVE_BASE]

    # -- hot path ----------------------------------------------------------

    def span(self, address: int, n_bytes: int) -> Tuple[range, range]:
        """The ``(lines, pages)`` an access of ``n_bytes`` covers.

        Fixed for a block's lifetime, so a structure whose visits
        always read the same block prefixes computes its spans once
        and replays them into :meth:`touch_many`.
        """
        end = address + n_bytes - 1
        return (range(address >> self._line_shift,
                      (end >> self._line_shift) + 1),
                range(address >> self._page_shift,
                      (end >> self._page_shift) + 1))

    def spans(self, runs: Iterable[Tuple[int, int]]
              ) -> Tuple[List[int], List[int]]:
        """:meth:`span` of each ``(address, n_bytes)`` run, flattened
        in order: the two arguments :meth:`touch_many` takes."""
        lines: List[int] = []
        pages: List[int] = []
        for address, n_bytes in runs:
            run_lines, run_pages = self.span(address, n_bytes)
            lines += run_lines
            pages += run_pages
        return lines, pages

    def touch(self, address: int, n_bytes: int, enclave: bool) -> None:
        """Account for a data access of ``n_bytes`` at ``address``."""
        self.touch_many(*self.span(address, n_bytes), enclave)

    def touch_many(self, lines: Sequence[int], pages: Sequence[int],
                   enclave: bool) -> None:
        """Account a batch of accesses, given as the line numbers and
        the page numbers they cover, each in access order — int64
        arrays (what a poset walk hands over) or sequences of ints.

        The one accounting entry point (a whole poset walk is one
        call): the LLC and the EPC keep independent state, so feeding
        each model its own sequence gives the counters of interleaving
        them access by access; the per-access costs are integers, so
        the multiplied total is the sum of the per-access charges.
        An array of pages reaches the EPC with its consecutive repeats
        collapsed: a repeat of the page just touched is a resident hit
        that changes no policy's state (LRU: already the most recent;
        CLOCK: its bit already set; FIFO: nothing), and no counter
        counts EPC hits.
        """
        costs = self.costs
        misses = self.cache.access_lines(lines)
        if type(pages) is np.ndarray:
            pages = _collapsed(pages)
        cycles = (len(lines) - misses) * costs.llc_hit_cycles
        if enclave:
            cycles += (misses * (costs.llc_miss_cycles
                                 + costs.mee_line_cycles)
                       + self.epc.access_pages(pages)
                       * costs.epc_fault_cycles)
        else:
            cycles += misses * costs.llc_miss_cycles
            seen = self._untrusted_pages
            if not seen.issuperset(pages):
                fresh = set(pages) - seen
                seen |= fresh
                self.minor_faults += len(fresh)
                cycles += len(fresh) * costs.minor_fault_cycles
        self.cycles += cycles

    def charge(self, cycles: float) -> None:
        """Charge raw compute cycles (predicate evals, crypto, ...)."""
        self.cycles += cycles

    def eremove_range(self, address: int, n_bytes: int) -> int:
        """EREMOVE every enclave page in a range; returns pages dropped.

        Used at enclave teardown (orderly or crash): the EPC slots the
        dead enclave occupied are reclaimable immediately, so a
        restarted instance does not fault against its predecessor's
        ghost residency.
        """
        if n_bytes <= 0:
            return 0
        first_page = address >> self._page_shift
        last_page = (address + n_bytes - 1) >> self._page_shift
        removed = 0
        for page in range(first_page, last_page + 1):
            if self.epc.is_resident(page):
                self.epc.remove(page)
                removed += 1
        return removed

    def prefault(self, address: int, n_bytes: int, enclave: bool) -> None:
        """Make pages resident without charging cycles or counters.

        Used to reconstruct the residency state a preceding untraced
        phase (e.g. registration excluded from a measurement) would
        have left behind. LLC state is deliberately not touched.
        """
        if n_bytes <= 0:
            return
        first_page = address >> self._page_shift
        last_page = (address + n_bytes - 1) >> self._page_shift
        if enclave:
            epc = self.epc
            faults, evictions, loads = (epc.faults, epc.evictions,
                                        epc.loads)
            epc.access_pages(range(first_page, last_page + 1))
            epc.faults, epc.evictions, epc.loads = (faults, evictions,
                                                    loads)
        else:
            self._untrusted_pages.update(
                range(first_page, last_page + 1))

    # -- bookkeeping ---------------------------------------------------------

    def snapshot(self) -> MemoryCounters:
        """Current cumulative counters."""
        return MemoryCounters(
            cycles=self.cycles,
            llc_hits=self.cache.hits,
            llc_misses=self.cache.misses,
            epc_faults=self.epc.faults,
            epc_evictions=self.epc.evictions,
            minor_faults=self.minor_faults,
        )

    def elapsed_us(self, since: Optional[MemoryCounters] = None) -> float:
        """Simulated microseconds, optionally since a snapshot."""
        cycles = self.cycles - (since.cycles if since else 0.0)
        return self.spec.cycles_to_us(cycles)

    def new_arena(self, enclave: bool, name: str = "") -> "MemoryArena":
        """Create an allocation arena in the chosen address space."""
        return MemoryArena(self, enclave=enclave, name=name)


class MemoryArena:
    """Bump allocator with a size-bucketed freelist.

    Arenas within the same subsystem and space are laid out one after
    another, so an arena's addresses depend on its platform alone;
    allocations are cache-line aligned so that distinct nodes do not
    share lines (conservative but simple).

    :meth:`free` returns a block to a freelist keyed by its aligned
    capacity; a later :meth:`alloc` of the same capacity reuses the
    address instead of bumping the cursor. Long-lived structures under
    insert/remove churn (the containment index) therefore keep a
    bounded modelled working set instead of growing the EPC footprint
    monotonically.
    """

    #: Gap between arenas, large enough for any experiment in this repo.
    ARENA_SPAN = 1 << 36

    __slots__ = ("memory", "enclave", "name", "base", "_cursor", "_align",
                 "_free", "_live", "_live_allocs", "freed_blocks",
                 "reused_blocks")

    def __init__(self, memory: MemorySubsystem, enclave: bool,
                 name: str = "") -> None:
        self.memory = memory
        self.enclave = enclave
        self.name = name
        self.base = self._cursor = memory._next_base[enclave]
        memory._next_base[enclave] += self.ARENA_SPAN
        self._align = memory.spec.cache_line_bytes
        #: capacity (aligned size) -> reusable addresses, LIFO.
        self._free: Dict[int, List[int]] = {}
        self._live = 0
        #: address -> requested size, to catch double/bad frees.
        self._live_allocs: Dict[int, int] = {}
        self.freed_blocks = 0
        self.reused_blocks = 0

    def _capacity(self, n_bytes: int) -> int:
        align = self._align
        return (n_bytes + align - 1) // align * align

    def alloc(self, n_bytes: int) -> int:
        """Allocate ``n_bytes``; returns the simulated address.

        Prefers a freed block of the same aligned capacity over fresh
        cursor space (LIFO, so recently evicted addresses — likely
        still cache/EPC resident — are reused first).
        """
        if n_bytes <= 0:
            raise SgxError("allocation size must be positive")
        bucket = self._free.get(self._capacity(n_bytes))
        if bucket:
            address = bucket.pop()
            self.reused_blocks += 1
        else:
            align = self._align
            address = (self._cursor + align - 1) // align * align
            self._cursor = address + n_bytes
        self._live += n_bytes
        self._live_allocs[address] = n_bytes
        return address

    def free(self, address: int, n_bytes: int) -> None:
        """Return a previously allocated block for reuse.

        The simulated pages stay resident (real freed heap memory is
        not unmapped either); what shrinks is the *live* footprint, so
        churned structures stop growing the working set.
        """
        recorded = self._live_allocs.pop(address, None)
        if recorded is None:
            raise SgxError(f"free of unallocated address {address:#x}")
        if recorded != n_bytes:
            self._live_allocs[address] = recorded
            raise SgxError(
                f"free size {n_bytes} does not match allocation "
                f"size {recorded} at {address:#x}")
        self._free.setdefault(self._capacity(n_bytes), []).append(address)
        self._live -= n_bytes
        self.freed_blocks += 1

    def holds(self, address: int, n_bytes: int) -> bool:
        """Whether a live allocation of ``n_bytes`` starts at ``address``."""
        return self._live_allocs.get(address) == n_bytes

    @property
    def allocated_bytes(self) -> int:
        """High-water bytes handed out (including alignment padding)."""
        return self._cursor - self.base

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not freed."""
        return self._live

    def touch(self, address: int, n_bytes: int) -> None:
        """Record an access to a previously allocated region."""
        self.memory.touch(address, n_bytes, self.enclave)

    def touch_many(self, lines: Sequence[int],
                   pages: Sequence[int]) -> None:
        """Record a batch of line/page accesses in this arena's space."""
        self.memory.touch_many(lines, pages, self.enclave)

    def touch_runs(self, runs: Iterable[Tuple[int, int]]) -> None:
        """Record a batch of ``(address, n_bytes)`` accesses in order."""
        self.memory.touch_many(*self.memory.spans(runs), self.enclave)

    def charge(self, cycles: float) -> None:
        """Charge the compute cycles of work on this arena's data."""
        self.memory.charge(cycles)


class TraceArena(MemoryArena):
    """An arena that records what its index touches and charges.

    One index, several platforms: an index that allocates here is
    built and walked once; :meth:`take` hands over what a walk or an
    insert recorded — its :meth:`touch_many` batches and compute
    charges, in order — and :meth:`replay` pays that trace on a
    *target*, an arena of another platform of the same spec, moved to
    the target's base. Each target keeps its own LLC, EPC and cycle
    account and is charged what an index of its own would have cost
    it: arena bases are whole pages and whole LLC set spans apart, so
    the moved lines fall in the same sets.
    """

    __slots__ = ("trace",)

    def __init__(self, spec: PlatformSpec) -> None:
        super().__init__(MemorySubsystem(spec), enclave=False)
        self.trace: List[object] = []

    def touch_many(self, lines: Sequence[int],
                   pages: Sequence[int]) -> None:
        self.trace.append((lines, pages))

    def charge(self, cycles: float) -> None:
        self.trace.append(cycles)

    def take(self) -> List[object]:
        """The trace recorded since the last take."""
        trace, self.trace = self.trace, []
        return trace

    def replay(self, trace: List[object], target: MemoryArena) -> None:
        """Pay ``trace`` on ``target``, in recorded order."""
        memory = target.memory
        offset = target.base - self.base
        line_offset = offset // memory.spec.cache_line_bytes
        page_offset = offset // memory.spec.page_bytes
        for entry in trace:
            if type(entry) is not tuple:
                memory.charge(entry)
                continue
            lines, pages = entry
            if offset:
                lines = np.add(lines, line_offset)
                pages = np.add(pages, page_offset)
            memory.touch_many(lines, pages, target.enclave)
