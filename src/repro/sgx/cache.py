"""Set-associative last-level cache model with LRU replacement.

Fed with the matcher's real memory-access trace, this model produces the
LLC miss rates that drive the in-enclave vs. native gap of Figures 5
and 7: once the subscription index outgrows the LLC, every miss inside
an enclave additionally pays the MEE decrypt/verify cost.

The model tracks cache *lines* only (no data): a line is identified by
``address >> line_shift``. Recency is one global map ``line -> stamp``
(the tick of its last access; ticks are unique and only grow), so a
batch of resident lines is refreshed by one ``dict.update`` with no
Python-level loop. Exact LRU follows from the stamps: the least
recently used line of a set is the one with the smallest stamp.
Victims are found without scanning: each set keeps its lines as
``(stamp when filed, line)`` pairs in ascending order, a filed stamp
never exceeds the line's current one, so when the front pair's stamp
is still current it is the set's minimum; when it is not, the pair is
re-filed under the current stamp and the next front is tried.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Tuple

__all__ = ["CacheModel"]


class CacheModel:
    """LRU set-associative cache over line addresses.

    >>> cache = CacheModel(size_bytes=1024, line_bytes=64, associativity=2)
    >>> cache.access(0)      # cold miss
    False
    >>> cache.access(0)      # now resident
    True
    """

    __slots__ = ("line_shift", "ways", "n_sets", "_set_mask", "_sets",
                 "_stamp", "_tick", "hits", "misses")

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
        #: per set: resident lines as (stamp when filed, line), ascending
        self._sets: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_sets)]
        #: resident line -> tick of its last access
        self._stamp: Dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch the line containing ``address``; True on hit."""
        return self.access_line(address >> self.line_shift)

    def access_line(self, line: int) -> bool:
        """Touch a line address directly; True on hit."""
        return not self.access_lines((line,))

    def access_run(self, first_line: int,
                   last_line: int) -> Tuple[int, int]:
        """Touch the inclusive line run; returns ``(hits, misses)``."""
        misses = self.access_lines(range(first_line, last_line + 1))
        return last_line + 1 - first_line - misses, misses

    def access_lines(self, lines: Iterable[int]) -> int:
        """Touch ``lines`` (a sized, re-iterable sequence) in order.

        Returns the number of misses; the rest hit. The one accounting
        entry point of the model: a batch whose lines are all resident
        is two C-level passes (a membership test and a stamp refresh,
        the last occurrence of a repeated line winning as it would in
        order); a batch containing a miss takes the per-line loop.
        """
        stamp = self._stamp
        tick = self._tick
        n_lines = len(lines)
        self._tick = tick + n_lines
        if all(map(stamp.__contains__, lines)):
            stamp.update(zip(lines, range(tick, tick + n_lines)))
            self.hits += n_lines
            return 0
        sets = self._sets
        mask = self._set_mask
        ways = self.ways
        misses = 0
        for tick, line in enumerate(lines, tick):
            if line not in stamp:
                misses += 1
                entries = sets[line & mask]
                if len(entries) == ways:
                    filed, victim = entries.pop(0)
                    while stamp[victim] != filed:
                        insort(entries, (stamp[victim], victim))
                        filed, victim = entries.pop(0)
                    del stamp[victim]
                entries.append((tick, line))
            stamp[line] = tick
        self.hits += n_lines - misses
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
        self._stamp.clear()
        for entries in self._sets:
            entries.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (keeps cache contents)."""
        self.hits = 0
        self.misses = 0
