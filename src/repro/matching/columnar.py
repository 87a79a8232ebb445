"""Columnar batch matcher: attribute-indexed predicate tables.

The containment forest answers one event per tree walk; profiles after
the PR 5 crypto overhaul show that walk is now the wall-clock
bottleneck of the whole pipeline. This module trades the per-event walk
for a *batch* plane compiled from the registered subscription set:

* per attribute, the constraints of every stored subscription are
  compiled into an :class:`_AttributeTable` — a hash bucket per
  equality pin, sorted lower/upper bound lists and sorted interval
  lists for the numeric range ops, an "always" list for bare
  ``exists`` constraints, and a residual list of compiled closures for
  the rare shapes (exclusion sets, string wildcards);
* a batch of events is evaluated column-wise, one pass per attribute:
  each event's value probes the table once and *decrements a
  per-event deficit byte* for every subscription whose constraint on
  that attribute it satisfies;
* a subscription matches an event exactly when its deficit reaches
  zero — every one of its constraints was satisfied by a distinct
  attribute pass — and the zero bytes are found with C-speed
  ``bytearray.find`` scans, so emission cost is proportional to the
  matches, not to the stored set.

The poset (:class:`~repro.matching.poset.ContainmentForest`) remains
the authoritative registration and covering structure — insertion,
removal, covering antichains for overlay adverts, and invariants all
live there. The plane is a *match-time* projection compiled lazily
from the forest and invalidated generation-style: every registration
change bumps :attr:`ContainmentForest.generation`, and the next match
through a stale plane recompiles (the same O(1)-invalidate /
lazy-rebuild discipline as :class:`~repro.matching.matcher.MatchMemo`).

Memory-trace fidelity: when built over an arena the plane allocates
one column block per attribute plus one accumulator block, and traced
batch matching reports *coalesced runs* over exactly the column bytes
each pass consulted — the LLC/EPC/MEE models keep observing the real
access pattern (sequential column streams, one accumulator sweep per
event) instead of the forest's pointer-chasing node touches.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.sgx.memory import MemoryArena

__all__ = ["ColumnarMatchPlane", "MATCHER_BACKENDS",
           "validate_backend"]

#: Matcher backends selectable wherever the plane is wired in
#: (:class:`~repro.matching.matcher.MatchingEngine`, the enclave
#: library, the cluster slices, the overlay network).
MATCHER_BACKENDS = ("forest", "columnar")

#: Modelled bytes per compiled table entry (a bound or bucket slot:
#: packed value, flags, subscription index).
COLUMN_ENTRY_BYTES = 16
#: Modelled bytes per hash bucket header.
BUCKET_HEADER_BYTES = 8
#: Modelled per-column header (lengths, offsets, attribute id).
COLUMN_BASE_BYTES = 64


def validate_backend(backend: str) -> str:
    """Reject unknown matcher backend names early and loudly."""
    if backend not in MATCHER_BACKENDS:
        raise MatchingError(
            f"unknown matcher backend {backend!r} "
            f"(expected one of {MATCHER_BACKENDS})")
    return backend


class _AttributeTable:
    """Compiled constraint tables for one attribute.

    Placement is decided per constraint shape, most specific first;
    every stored constraint lands in exactly one of:

    * ``eq_buckets`` — single admitted value (numeric or string pin):
      ``value -> [subscription indexes]``, an O(1) probe;
    * ``lower`` — one-sided ``v >= lo`` / ``v > lo``: entries sorted by
      ``(lo, lo_open)`` so the satisfied set is a prefix found by one
      bisect;
    * ``upper`` — one-sided ``v <= hi`` / ``v < hi``: entries sorted by
      ``(hi, closedness)`` so the satisfied set is a suffix;
    * ``ranges`` — two-sided intervals, sorted by the lower bound:
      bisect limits the scan to entries whose lower bound admits ``v``,
      each checked against its upper bound;
    * ``always`` — bare ``exists`` constraints (satisfied by any
      present value of any type);
    * ``residual`` — compiled closures for exclusion sets and string
      wildcards (exact but rare; kept off the fast paths).
    """

    __slots__ = ("attribute", "eq_buckets", "lower_keys", "lower_subs",
                 "upper_keys", "upper_subs", "range_keys", "range_rows",
                 "always", "residual", "n_entries", "n_buckets",
                 "address", "size")

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self.eq_buckets: Dict[object, List[int]] = {}
        self.lower_keys: List[Tuple[float, bool]] = []
        self.lower_subs: List[int] = []
        self.upper_keys: List[Tuple[float, int]] = []
        self.upper_subs: List[int] = []
        self.range_keys: List[Tuple[float, bool]] = []
        self.range_rows: List[Tuple[float, bool, int]] = []
        self.always: List[int] = []
        self.residual: List[Tuple[object, int]] = []
        self.n_entries = 0
        self.n_buckets = 0
        self.address = 0
        self.size = 0

    def add(self, constraint, sub_index: int) -> None:
        self.n_entries += 1
        if constraint.is_equality():
            # Satisfiability was enforced at registration, so the
            # pinned value is never excluded and the bucket is exact.
            key = constraint.equals if constraint.is_string \
                else constraint.lo
            bucket = self.eq_buckets.get(key)
            if bucket is None:
                self.eq_buckets[key] = [sub_index]
                self.n_buckets += 1
            else:
                bucket.append(sub_index)
            return
        if not constraint.is_string and not constraint.excluded:
            if constraint.is_universal_interval():
                self.always.append(sub_index)
                return
            lo, hi = constraint.lo, constraint.hi
            if hi == float("inf") and not constraint.hi_open:
                self.lower_keys.append((lo, constraint.lo_open))
                self.lower_subs.append(sub_index)
                return
            if lo == float("-inf") and not constraint.lo_open:
                # Closed bounds sort after open ones at the same hi, so
                # the satisfied suffix starts right after (v, open).
                self.upper_keys.append(
                    (hi, 0 if constraint.hi_open else 1))
                self.upper_subs.append(sub_index)
                return
            if hi != float("inf") and lo != float("-inf"):
                self.range_keys.append((lo, constraint.lo_open))
                self.range_rows.append(
                    (hi, constraint.hi_open, sub_index))
                return
            # Open bound at an infinity ("< inf", "> -inf"): the
            # compiled closures give these exact (if degenerate)
            # semantics — keep the fast lists free of the special case.
        self.residual.append((constraint.compile(), sub_index))

    def seal(self) -> None:
        """Sort the bound lists after all constraints are placed."""
        if self.lower_keys:
            order = sorted(range(len(self.lower_keys)),
                           key=self.lower_keys.__getitem__)
            self.lower_keys = [self.lower_keys[i] for i in order]
            self.lower_subs = [self.lower_subs[i] for i in order]
        if self.upper_keys:
            order = sorted(range(len(self.upper_keys)),
                           key=self.upper_keys.__getitem__)
            self.upper_keys = [self.upper_keys[i] for i in order]
            self.upper_subs = [self.upper_subs[i] for i in order]
        if self.range_keys:
            order = sorted(range(len(self.range_keys)),
                           key=self.range_keys.__getitem__)
            self.range_keys = [self.range_keys[i] for i in order]
            self.range_rows = [self.range_rows[i] for i in order]

    def modelled_bytes(self) -> int:
        return (COLUMN_BASE_BYTES
                + COLUMN_ENTRY_BYTES * self.n_entries
                + BUCKET_HEADER_BYTES * self.n_buckets)

    def probe(self, value, deficit: bytearray) -> Tuple[int, int]:
        """Decrement ``deficit`` for every constraint ``value``
        satisfies; returns ``(subs_touched, tests_consulted)``."""
        touched = 0
        consulted = 0
        always = self.always
        if always:
            for sub in always:
                deficit[sub] -= 1
            touched += len(always)
        bucket = self.eq_buckets.get(value)
        if self.eq_buckets:
            consulted += 1
        if bucket is not None:
            for sub in bucket:
                deficit[sub] -= 1
            touched += len(bucket)
        if not isinstance(value, str):
            lower_keys = self.lower_keys
            if lower_keys:
                stop = bisect_right(lower_keys, (value, False))
                consulted += stop
                for sub in self.lower_subs[:stop]:
                    deficit[sub] -= 1
                touched += stop
            upper_keys = self.upper_keys
            if upper_keys:
                start = bisect_right(upper_keys, (value, 0))
                n = len(upper_keys) - start
                consulted += n
                for sub in self.upper_subs[start:]:
                    deficit[sub] -= 1
                touched += n
            range_keys = self.range_keys
            if range_keys:
                stop = bisect_right(range_keys, (value, False))
                consulted += stop
                for hi, hi_open, sub in self.range_rows[:stop]:
                    if value < hi or (value == hi and not hi_open):
                        deficit[sub] -= 1
                        touched += 1
        for test, sub in self.residual:
            consulted += 1
            if test(value):
                deficit[sub] -= 1
                touched += 1
        return touched, consulted


class ColumnarMatchPlane:
    """Lazy columnar projection of a containment forest.

    The plane never owns registrations: it reads the forest's nodes at
    compile time and keeps *references* to their live subscriber sets,
    which is safe because any registration change bumps the forest's
    generation and the next match recompiles. Column blocks are
    allocated from ``arena`` (freed and re-allocated on recompile so
    churn does not grow the modelled working set); with no arena the
    plane is untraced — correctness tests use it that way.
    """

    def __init__(self, forest: ContainmentForest,
                 arena: Optional[MemoryArena] = None) -> None:
        self.forest = forest
        self.arena = arena
        self._compiled_generation: Optional[int] = None
        self._tables: List[_AttributeTable] = []
        self._subscribers: List[Set[object]] = []
        self._arity = b""
        self._allocated: List[Tuple[int, int]] = []
        self._acc_address = 0
        self._acc_size = 0
        #: Compile-churn telemetry (read by tests and benchmarks).
        self.compilations = 0

    # -- compilation -------------------------------------------------------

    def _release_blocks(self) -> None:
        if self.arena is not None:
            for address, size in self._allocated:
                self.arena.free(address, size)
        self._allocated = []

    def _compile(self) -> None:
        self._release_blocks()
        tables: Dict[str, _AttributeTable] = {}
        subscribers: List[Set[object]] = []
        arity = bytearray()
        for node in self.forest.iter_nodes():
            sub_index = len(subscribers)
            subscribers.append(node.subscribers)
            subscription = node.subscription
            n_constraints = subscription.n_constraints
            if n_constraints > 255:
                raise MatchingError(
                    "columnar deficit bytes cap subscriptions at 255 "
                    "constraints")
            arity.append(n_constraints)
            for attribute, constraint in subscription.items:
                table = tables.get(attribute)
                if table is None:
                    table = tables[attribute] = \
                        _AttributeTable(attribute)
                table.add(constraint, sub_index)
        for table in tables.values():
            table.seal()
        self._tables = list(tables.values())
        self._subscribers = subscribers
        self._arity = bytes(arity)
        if self.arena is not None:
            for table in self._tables:
                table.size = table.modelled_bytes()
                table.address = self.arena.alloc(table.size)
                self._allocated.append((table.address, table.size))
            self._acc_size = max(1, len(subscribers))
            self._acc_address = self.arena.alloc(self._acc_size)
            self._allocated.append((self._acc_address, self._acc_size))
        self._compiled_generation = self.forest.generation
        self.compilations += 1

    def ensure_compiled(self) -> None:
        """Recompile if any registration happened since the last build."""
        if self._compiled_generation != self.forest.generation:
            self._compile()

    def release(self) -> None:
        """Free the plane's arena blocks and force a recompile.

        Called when the owning engine discards the underlying forest
        (state restore): the compiled tables reference nodes of an
        index that no longer exists, and their modelled memory must be
        returned to the arena.
        """
        self._release_blocks()
        self._tables = []
        self._subscribers = []
        self._arity = b""
        self._compiled_generation = None

    # -- introspection -----------------------------------------------------

    @property
    def n_subscription_nodes(self) -> int:
        self.ensure_compiled()
        return len(self._subscribers)

    @property
    def n_attributes(self) -> int:
        self.ensure_compiled()
        return len(self._tables)

    @property
    def column_bytes(self) -> int:
        """Modelled footprint of the compiled plane."""
        self.ensure_compiled()
        return sum(size for _addr, size in self._allocated) \
            if self.arena is not None \
            else sum(t.modelled_bytes() for t in self._tables)

    # -- matching ----------------------------------------------------------

    def _evaluate(self, events: Sequence[Event], traced: bool
                  ) -> Tuple[List[Set[object]], List[int], List[int]]:
        self.ensure_compiled()
        n_events = len(events)
        base = self._arity
        deficits = [bytearray(base) for _ in range(n_events)]
        visited = [0] * n_events
        consulted = [0] * n_events
        headers = [event.header for event in events]
        runs: List[Tuple[int, int]] = []
        for table in self._tables:
            attribute = table.attribute
            probe = table.probe
            consulted_bytes = 0
            for index in range(n_events):
                value = headers[index].get(attribute)
                if value is None:
                    continue
                touched, tests = probe(value, deficits[index])
                visited[index] += touched
                consulted[index] += tests
                # Each probe streams the consulted entries of this
                # column; the batch pass coalesces them into one run.
                consulted_bytes = max(
                    consulted_bytes,
                    COLUMN_BASE_BYTES + COLUMN_ENTRY_BYTES * tests)
            if traced and consulted_bytes:
                runs.append((table.address,
                             min(table.size, consulted_bytes)))
        matched: List[Set[object]] = []
        subscribers = self._subscribers
        acc_address = self._acc_address
        acc_size = self._acc_size
        for index in range(n_events):
            deficit = deficits[index]
            result: Set[object] = set()
            position = deficit.find(0)
            while position != -1:
                result |= subscribers[position]
                position = deficit.find(0, position + 1)
            matched.append(result)
            if traced:
                # One accumulator sweep per event: the deficit array is
                # written by every pass and scanned once for zeros.
                runs.append((acc_address, acc_size))
        if traced:
            self.arena.touch_runs(runs)
        return matched, visited, consulted

    def match(self, event: Event) -> Set[object]:
        """Untraced single-event matching (correctness tests)."""
        return self._evaluate([event], traced=False)[0][0]

    def match_batch(self, events: Sequence[Event]) -> List[Set[object]]:
        """Untraced batch matching: one column pass per attribute."""
        if not events:
            return []
        return self._evaluate(events, traced=False)[0]

    def match_batch_traced(self, events: Sequence[Event]
                           ) -> Tuple[List[Set[object]],
                                      List[int], List[int]]:
        """Batch matching with coalesced memory-trace accounting.

        Returns ``(match sets, subscriptions touched, constraint tests
        consulted)`` — the per-event work counters callers charge
        compute cycles from, in the same currency as
        ``(nodes_visited, predicates_evaluated)`` on the forest path.
        """
        if self.arena is None:
            raise MatchingError(
                "match_batch_traced requires an arena-backed plane")
        if not events:
            return [], [], []
        return self._evaluate(events, traced=True)
