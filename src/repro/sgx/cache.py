"""Set-associative last-level cache model with LRU replacement.

Fed with the matcher's real memory-access trace, this model produces the
LLC miss rates that drive the in-enclave vs. native gap of Figures 5
and 7: once the subscription index outgrows the LLC, every miss inside
an enclave additionally pays the MEE decrypt/verify cost.

The model tracks cache *lines* only (no data): a line is identified by
``address >> line_shift``. Recency is one stamp per line, the tick of
its last access (ticks are unique and only grow), -1 for a line that is
not resident. Exact LRU follows from the stamps: the least recently
used line of a set is the one with the smallest stamp. Victims are
found without scanning: each set keeps its lines as ``(stamp when
filed, slot)`` pairs in ascending order, a filed stamp never exceeds
the line's current one, so when the front pair's stamp is still current
it is the set's minimum; when it is not, the pair is re-filed under the
current stamp and the next front is tried.

**The store.** Stamps live in one int64 array, addressed by *slot*: the
line space is cut into chunks of ``2**bits`` lines (at least one line
per set, so a slot and its line fall in the same set), and a chunk gets
the next free ``2**bits`` slots the first time one of its lines is
touched — the array grows with the lines touched, not with the size of
their addresses. A batch finds its slots without a Python step per
line: the chunks of one region of ``2**(2 * bits)`` lines are numbered
by one table per region (an arena's lines share a region), so the slots
are one gather from that table. A chunk not yet placed reads as slot 0
of chunk 0, which is never placed and so never resident. A batch whose
lines are all resident is then one gather of their stamps, one check
and one scatter of the ticks (``np.maximum.at``: ticks ascend, so a
repeated line keeps its last occurrence's, as in-order accesses
would); a batch containing a miss takes the per-line loop, which reads
and writes the stamps through a ``memoryview`` (Python ints, no numpy
scalars). Set entries name slots, which stay put when the array
regrows; the view does not, and is renewed with the array.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["CacheModel"]

#: The smallest chunk of the stamp store, in lines: 2**12 lines are
#: 256 KiB of address space and 32 KiB of stamps.
_MIN_CHUNK_BITS = 12


class CacheModel:
    """LRU set-associative cache over line addresses.

    >>> cache = CacheModel(size_bytes=1024, line_bytes=64, associativity=2)
    >>> cache.access(0)      # cold miss
    False
    >>> cache.access(0)      # now resident
    True
    """

    __slots__ = ("line_shift", "ways", "n_sets", "_set_mask", "_sets",
                 "_bits", "_bases", "_tables", "_unplaced", "_stamps",
                 "_view", "_used", "_tick", "hits", "misses")

    def __init__(self, size_bytes: int, line_bytes: int = 64,
                 associativity: int = 16) -> None:
        way_bytes = line_bytes * associativity
        if size_bytes % way_bytes:
            raise ValueError(
                f"cache size {size_bytes} is not a multiple of the way "
                f"size {way_bytes} (line_bytes={line_bytes} x "
                f"associativity={associativity}); the requested "
                f"geometry cannot be built exactly")
        self.line_shift = line_bytes.bit_length() - 1
        if 1 << self.line_shift != line_bytes:
            raise ValueError("line size must be a power of two")
        self.ways = associativity
        self.n_sets = size_bytes // way_bytes
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = self.n_sets - 1
        #: per set: resident lines as (stamp when filed, slot), ascending
        self._sets: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_sets)]
        self._bits = bits = max(self.n_sets.bit_length() - 1,
                                _MIN_CHUNK_BITS)
        #: chunk (``line >> bits``) -> its first slot
        self._bases: Dict[int, int] = {}
        #: region (``line >> 2 * bits``) -> per chunk of the region its
        #: first slot, 0 where the chunk is not placed
        self._tables: Dict[int, np.ndarray] = {}
        self._unplaced = np.zeros(1 << bits, dtype=np.int64)
        #: slot -> stamp of its line, -1 when not resident; chunk 0 is
        #: never placed
        self._stamps = np.full(2 << bits, -1, dtype=np.int64)
        self._view = memoryview(self._stamps)
        self._used = 1 << bits
        self._tick = 0
        self.hits = 0
        self.misses = 0

    # -- the store -----------------------------------------------------------

    def _place(self, chunk: int) -> int:
        """Give ``chunk`` the next free slots; returns the first."""
        bits = self._bits
        base = self._bases[chunk] = self._used
        self._used += 1 << bits
        if self._used > len(self._stamps):
            stamps = np.full(2 * len(self._stamps), -1, dtype=np.int64)
            stamps[:base] = self._stamps[:base]
            self._stamps = stamps
            self._view = memoryview(stamps)
        table = self._tables.get(chunk >> bits)
        if table is None:
            table = self._tables[chunk >> bits] = np.zeros(
                1 << bits, dtype=np.int64)
        table[chunk & ((1 << bits) - 1)] = base
        return base

    def _slot(self, line: int) -> int:
        """``line``'s slot, its chunk placed if it was not."""
        bits = self._bits
        base = self._bases.get(line >> bits)
        if base is None:
            base = self._place(line >> bits)
        return base | (line & ((1 << bits) - 1))

    def _lookup(self, lines: np.ndarray) -> np.ndarray:
        """The slot of each line; a line of an unplaced chunk gets a
        slot below ``2**bits``, which is never resident."""
        bits = self._bits
        wide = 2 * bits
        region = int(lines[0]) >> wide
        offsets = lines - (region << wide)
        if int(offsets.view(np.uint64).max()) >> wide:
            # the batch spans regions: one lookup per region
            regions = lines >> wide
            slots = np.empty_like(offsets)
            for region in set(regions.tolist()):
                held = regions == region
                slots[held] = self._lookup(lines[held])
            return slots
        table = self._tables.get(region, self._unplaced)
        return table[offsets >> bits] | (offsets & ((1 << bits) - 1))

    # -- accounting ------------------------------------------------------------

    def access(self, address: int) -> bool:
        """Touch the line containing ``address``; True on hit."""
        return self.access_line(address >> self.line_shift)

    def access_line(self, line: int) -> bool:
        """Touch a line address directly; True on hit."""
        tick = self._tick
        self._tick = tick + 1
        slot = self._slot(line)
        view = self._view
        if view[slot] >= 0:
            view[slot] = tick
            self.hits += 1
            return True
        return not self._replay((slot,), tick)

    def access_run(self, first_line: int,
                   last_line: int) -> Tuple[int, int]:
        """Touch the inclusive line run; returns ``(hits, misses)``."""
        misses = self.access_lines(np.arange(first_line, last_line + 1))
        return last_line + 1 - first_line - misses, misses

    def access_lines(self, lines: Sequence[int]) -> int:
        """Touch ``lines`` (an int64 array, or any sized sequence of
        ints) in order.

        Returns the number of misses; the rest hit. The batch entry
        point of the model: a batch whose lines are all resident is a
        gather, a check and a scatter over the stamp array; a batch
        containing a miss takes the per-line loop.
        """
        if type(lines) is not np.ndarray:
            lines = np.fromiter(lines, dtype=np.int64, count=len(lines))
        n_lines = len(lines)
        if not n_lines:
            return 0
        tick = self._tick
        self._tick = tick + n_lines
        slots = self._lookup(lines)
        stamps = self._stamps
        if stamps[slots].min() >= 0:
            np.maximum.at(stamps, slots, np.arange(tick, tick + n_lines))
            self.hits += n_lines
            return 0
        unplaced = slots < (1 << self._bits)
        if unplaced.any():
            for chunk in set((lines[unplaced] >> self._bits).tolist()):
                self._place(chunk)
            slots = self._lookup(lines)
        return self._replay(slots.tolist(), tick)

    def _replay(self, slots: Sequence[int], tick: int) -> int:
        """The per-line loop: touch ``slots`` in order, the first at
        ``tick``; returns the number of misses."""
        view = self._view
        sets = self._sets
        mask = self._set_mask
        ways = self.ways
        hits = 0
        for tick, slot in enumerate(slots, tick):
            if view[slot] >= 0:
                view[slot] = tick
                hits += 1
                continue
            entries = sets[slot & mask]
            if len(entries) == ways:
                filed, victim = entries.pop(0)
                while view[victim] != filed:
                    insort(entries, (view[victim], victim))
                    filed, victim = entries.pop(0)
                view[victim] = -1
            entries.append((tick, slot))
            view[slot] = tick
        misses = len(slots) - hits
        self.hits += hits
        self.misses += misses
        return misses

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when no traffic yet)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def flush(self) -> None:
        """Invalidate every line (keeps hit/miss counters)."""
        self._stamps.fill(-1)
        for entries in self._sets:
            entries.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (keeps cache contents)."""
        self.hits = 0
        self.misses = 0
